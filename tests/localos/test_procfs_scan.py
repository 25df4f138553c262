"""The cost and identity contract of the ``/proc`` scan.

A snapshot lists ``/proc`` once and reads a stat only for the live
managed processes and for processes new since the previous scan; a
remembered process is named by ``(pid, inode of /proc/<pid>)``, so a
reused pid is read afresh.
"""

import collections
import importlib.util
import os
import signal
import subprocess
import time

import pytest

from repro import ControlAction, GlobalPid
from repro.localos import RealBackend, children_map, procfs

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="requires a Linux /proc")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NS_LAST_PID = "/proc/sys/kernel/ns_last_pid"


@pytest.fixture
def backend():
    with RealBackend() as b:
        yield b


@pytest.fixture
def sleeper():
    child = subprocess.Popen(["sleep", "30"])
    yield child
    child.kill()
    child.wait()


def count_calls(monkeypatch, name):
    """Record the first argument of every call to ``procfs.<name>``."""
    calls = []
    original = getattr(procfs, name)

    def counting(*args):
        calls.append(args[0] if args else None)
        return original(*args)

    monkeypatch.setattr(procfs, name, counting)
    return calls


def parents(index):
    return {child: ppid for ppid, kids in index.items() for child in kids}


def key_of(known, pid):
    [key] = [key for key in known if key[0] == pid]
    return key


class TestScanCost:
    def test_second_snapshot_reads_only_the_live_records(
            self, backend, monkeypatch):
        n = 6
        sleepers = sorted(backend.spawn(["sleep", "30"]).pid
                          for _ in range(n))
        backend.snapshot()
        first = dict(backend._known)
        first_pids = {pid for pid, _ in first}

        calls = count_calls(monkeypatch, "read_stat")
        forest = backend.snapshot(prune=False)
        assert len(forest) == n

        # A process new to /proc since the first scan, or one whose
        # parent died in between, is read once more; nothing else is.
        fresh = {pid for (pid, inode), ppid in backend._known.items()
                 if first.get((pid, inode)) != ppid}
        counted = collections.Counter(
            pid for pid in calls
            if pid in first_pids and pid not in fresh)
        assert sorted(counted.elements()) == sleepers

    @pytest.mark.parametrize("entry_point, passes", [
        ("snapshot", 1), ("rstats", 1), ("control_tree", 1),
        ("shutdown", 2)])
    def test_each_entry_point_scans_proc_at_most_once(
            self, backend, monkeypatch, entry_point, passes):
        root = backend.spawn(["sleep", "30"])
        calls = count_calls(monkeypatch, "children_map")
        method = getattr(backend, entry_point)
        if entry_point == "control_tree":
            method(root, ControlAction.KILL)
        else:
            method()
        assert len(calls) == passes


class TestIdentity:
    def test_remembered_pid_under_another_inode_is_read_again(
            self, sleeper):
        known = {}
        children_map(known)
        pid, inode = key_of(known, sleeper.pid)
        del known[(pid, inode)]
        known[(pid, inode + 1)] = 1
        index = children_map(known)
        assert sleeper.pid in index[os.getpid()]
        assert sleeper.pid not in index.get(1, [])
        assert known[(pid, inode)] == os.getpid()
        assert (pid, inode + 1) not in known

    def test_remembered_pid_under_its_own_inode_is_trusted(
            self, sleeper, monkeypatch):
        """The contract, not a wish: the memory is believed while the
        inode and the parent stay the same processes."""
        known = {}
        children_map(known)
        known[key_of(known, sleeper.pid)] = 1
        calls = count_calls(monkeypatch, "read_stat")
        index = children_map(known)
        assert sleeper.pid in index[1]
        assert sleeper.pid not in calls

    def test_memory_agrees_with_a_fresh_scan_after_churn(self):
        """Spawns, kills, and a parent dying under its remembered
        child (which is reparented, so its ppid changes)."""
        known = {}
        children_map(known)
        children, orphans = [], []
        try:
            for round_ in range(4):
                children.extend(subprocess.Popen(["sleep", "30"])
                                for _ in range(3))
                shell = subprocess.Popen(
                    ["/bin/sh", "-c", "sleep 30 & echo $!; read line"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                orphans.append(int(shell.stdout.readline()))
                children_map(known)
                assert known[key_of(known, orphans[-1])] == shell.pid
                shell.stdin.close()
                shell.wait(timeout=10)
                shell.stdout.close()
                for victim in children[round_::4]:
                    victim.kill()
                    victim.wait()

                remembered = parents(children_map(known))
                fresh = parents(children_map())
                mine = [child.pid for child in children] + orphans
                assert {pid: remembered.get(pid) for pid in mine} \
                    == {pid: fresh.get(pid) for pid in mine}
                assert remembered[orphans[-1]] != shell.pid
        finally:
            for child in children:
                child.kill()
                child.wait()
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


@pytest.mark.skipif(
    not (os.geteuid() == 0 and os.access(NS_LAST_PID, os.W_OK)),
    reason="needs root and a writable ns_last_pid")
def test_child_reusing_a_remembered_pid_is_adopted(backend, tmp_path):
    """A managed shell forks a child onto the pid of an unrelated,
    dead process the backend remembers; the next snapshot adopts it."""
    for attempt in range(5):
        fifo = str(tmp_path / ("go%d" % attempt))
        os.mkfifo(fifo)
        shell = backend.spawn(
            ["/bin/sh", "-c", "read line < %s; sleep 30 & wait" % fifo],
            name="forker")
        backend.snapshot()
        unrelated = subprocess.Popen(["sleep", "30"])
        backend.snapshot()
        remembered = key_of(backend._known, unrelated.pid)
        assert backend._known[remembered] == os.getpid()
        unrelated.kill()
        unrelated.wait()
        try:
            with open(NS_LAST_PID, "w") as handle:
                handle.write(str(unrelated.pid - 1))
        except OSError as exc:
            pytest.skip("cannot set ns_last_pid: %s" % exc)
        with open(fifo, "w") as handle:
            handle.write("go\n")
        deadline = time.time() + 5.0
        while not procfs.descendants(shell.pid) and time.time() < deadline:
            time.sleep(0.01)
        if procfs.descendants(shell.pid) == [unrelated.pid]:
            break
        backend.control_tree(shell, ControlAction.KILL)
    else:
        pytest.skip("another process took the freed pid every time")
    forest = backend.snapshot(prune=False)
    child = GlobalPid(backend.host_name, unrelated.pid)
    assert child in forest.descendants(shell)
    assert forest.records[child].command == "sleep"


def test_only_procfs_opens_proc():
    spec = importlib.util.spec_from_file_location(
        "check_layering",
        os.path.join(REPO_ROOT, "tools", "check_layering.py"))
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    assert lint.check() == []
    source = '''
def scan(pid):
    """Reads /proc/<pid>/status."""
    open("/proc/%d/status" % pid)
    os.open(f"/proc/{pid}/stat", os.O_RDONLY)
    os.scandir(path="/proc")
    os.listdir("/tmp")
    return "/proc/self"
'''
    assert lint.proc_opens(source) == [4, 5, 6]
