"""Tests for the real-OS backend (genuine subprocesses and signals)."""

import os
import sys
import time

import pytest

from repro import ControlAction, GlobalPid, NoSuchProcessError, PPMError
from repro.localos import RealBackend, children_map, descendants, read_stat

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="requires a Linux /proc")

PY = sys.executable


def wait_for(predicate, timeout_s=10.0, interval_s=0.05):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


@pytest.fixture
def backend():
    with RealBackend() as b:
        yield b


class TestProcfs:
    def test_read_own_stat(self):
        stat = read_stat(os.getpid())
        assert stat is not None
        assert stat.pid == os.getpid()
        assert stat.ppid > 0
        assert stat.state in ("running", "sleeping")
        assert stat.utime_ms >= 0

    def test_read_missing_pid(self):
        assert read_stat(2 ** 22 - 1) is None

    def test_children_map_contains_us(self):
        index = children_map()
        stat = read_stat(os.getpid())
        assert os.getpid() in index.get(stat.ppid, [])


class TestSpawnAndControl:
    def test_spawn_and_state(self, backend):
        gpid = backend.spawn([PY, "-c", "import time; time.sleep(30)"],
                             name="sleeper")
        assert gpid.host == backend.host_name
        assert backend.state_of(gpid) in ("running", "sleeping")

    def test_stop_and_continue(self, backend):
        gpid = backend.spawn([PY, "-c", "import time; time.sleep(30)"])
        backend.control(gpid, ControlAction.STOP)
        assert wait_for(lambda: backend.state_of(gpid) == "stopped")
        backend.control(gpid, ControlAction.CONTINUE)
        assert wait_for(
            lambda: backend.state_of(gpid) in ("running", "sleeping"))

    def test_kill(self, backend):
        gpid = backend.spawn([PY, "-c", "import time; time.sleep(30)"])
        backend.control(gpid, ControlAction.KILL)
        assert wait_for(lambda: backend.state_of(gpid) == "exited")

    def test_exit_status_recorded(self, backend):
        gpid = backend.spawn([PY, "-c", "raise SystemExit(7)"],
                             name="failing")
        backend.wait_all()
        records = backend.rstats()
        mine = [r for r in records if r.gpid == gpid]
        assert mine and mine[0].exit_status == 7

    def test_unknown_pid_rejected(self, backend):
        with pytest.raises(NoSuchProcessError):
            backend.control(GlobalPid(backend.host_name, 1 << 21),
                            ControlAction.STOP)

    def test_foreign_host_rejected(self, backend):
        with pytest.raises(PPMError):
            backend.state_of(GlobalPid("elsewhere", 1))


class TestGenealogy:
    def test_descendants_discovered(self, backend):
        # A shell that forks a child sleeper.
        root = backend.spawn(
            ["/bin/sh", "-c", "%s -c 'import time; time.sleep(30)' & wait"
             % PY], name="forker")
        assert wait_for(
            lambda: len(backend.snapshot(prune=False).descendants(root)) >= 1)
        forest = backend.snapshot(prune=False)
        kids = forest.descendants(root)
        assert kids
        assert all(g.host == backend.host_name for g in kids)
        assert descendants(root.pid)  # raw procfs agrees

    def test_adopted_child_reports_when_it_started(self, backend):
        """Not when a snapshot first noticed it: the first snapshot
        comes 0.5 s after the fork."""
        root = backend.spawn(["/bin/sh", "-c", "sleep 30 & wait"],
                             name="forker")
        time.sleep(0.5)
        forest = backend.snapshot(prune=False)
        kids = forest.descendants(root)
        assert kids
        for kid in kids:
            # The kernel stamps the start to the clock tick (10 ms at
            # 100 Hz), and the shell may fork before spawn() returns.
            lag_ms = forest.records[kid].start_ms - \
                forest.records[root].start_ms
            assert -50.0 < lag_ms < 100.0

    def test_control_tree_stops_whole_computation(self, backend):
        root = backend.spawn(
            ["/bin/sh", "-c", "%s -c 'import time; time.sleep(30)' & wait"
             % PY], name="forker")
        assert wait_for(
            lambda: len(backend.snapshot(prune=False).descendants(root)) >= 1)
        targets = backend.control_tree(root, ControlAction.KILL)
        assert len(targets) >= 2
        assert wait_for(lambda: backend.state_of(root) == "exited")

    def test_exited_parent_retained_while_child_lives(self, backend):
        # The shell exits immediately; its orphaned child lives on.  The
        # backend keeps the exited parent's record (section 2).
        # The shell lingers briefly so the child is discovered while the
        # parent still lives, then exits, orphaning the child.
        root = backend.spawn(
            ["/bin/sh", "-c",
             "%s -c 'import time; time.sleep(30)' & sleep 0.4" % PY],
            name="orphaner")
        assert wait_for(
            lambda: len(backend.snapshot(prune=False)) >= 2,
            timeout_s=2.0)
        assert wait_for(lambda: backend.state_of(root) == "exited")
        forest = backend.snapshot(prune=True)
        assert root in forest  # exited, but its child is alive
        assert forest.records[root].state == "exited"

    def test_snapshot_prunes_exited_leaves(self, backend):
        gpid = backend.spawn([PY, "-c", "pass"], name="brief")
        backend.wait_all()
        assert gpid not in backend.snapshot(prune=True)
        assert gpid in backend.snapshot(prune=False)


class TestTreeControl:
    def test_stop_and_continue_tree(self, backend):
        root = backend.spawn(
            ["/bin/sh", "-c", "%s -c 'import time; time.sleep(30)' & wait"
             % PY], name="forker")
        assert wait_for(
            lambda: len(backend.snapshot(prune=False).descendants(root))
            >= 1)
        backend.control_tree(root, ControlAction.STOP)
        assert wait_for(lambda: backend.state_of(root) == "stopped")
        backend.control_tree(root, ControlAction.CONTINUE)
        assert wait_for(
            lambda: backend.state_of(root) in ("running", "sleeping"))
        backend.control_tree(root, ControlAction.KILL)

    def test_wait_all_times_out_on_stuck_child(self):
        backend = RealBackend()
        try:
            backend.spawn([PY, "-c", "import time; time.sleep(60)"])
            with pytest.raises(PPMError):
                backend.wait_all(timeout_s=0.5)
        finally:
            backend.shutdown()

    def test_rstats_report_renders(self, backend):
        from repro.core.rstats import build_report, render_report
        backend.spawn([PY, "-c", "pass"], name="quickjob")
        backend.wait_all()
        text = render_report(build_report(backend.rstats()))
        assert "quickjob" in text


class TestReaping:
    def test_killed_children_are_reaped_at_the_next_create(self, backend):
        """Create/kill cycles must not pile zombies under a long-lived
        manager, and must not drag dead ``Popen`` handles along with
        the exit records the paper wants kept."""

        def zombies():
            stats = (read_stat(pid) for pid in backend.managed_pids())
            return [stat.pid for stat in stats
                    if stat is not None and stat.state == "exited"]

        cycles, created = 50, []
        for _ in range(cycles):
            gpid = backend.spawn(["sleep", "30"])
            # Creation reaped everything killed before it.
            assert zombies() == []
            for earlier in created:
                record = backend._managed[earlier.pid]
                assert record.exited and record.exit_status == -9
                assert record.popen is None
            created.append(gpid)
            assert backend.manages(gpid.pid)
            backend.control(gpid, ControlAction.KILL)
            assert wait_for(lambda: backend.state_of(gpid) == "exited",
                            interval_s=0.002)
            assert len(zombies()) <= 1
        assert not backend.manages(1 << 21)

        # The reports read as they always did.
        reported = {record.gpid: record for record in backend.rstats()}
        assert sorted(reported) == sorted(created)
        for record in reported.values():
            assert record.state == "exited" and record.exit_status == -9
            assert record.end_ms is not None
            assert record.rusage["signals"] == 1
        assert len(backend.snapshot(prune=False)) == cycles
        assert len(backend.snapshot(prune=True)) == 0
        assert zombies() == [] and not backend._live


class TestShutdown:
    def test_shutdown_kills_survivors(self):
        backend = RealBackend()
        gpid = backend.spawn([PY, "-c", "import time; time.sleep(60)"])
        backend.shutdown()
        assert backend.state_of(gpid) == "exited"

    def test_rusage_sampled(self, backend):
        gpid = backend.spawn(
            [PY, "-c", "sum(i*i for i in range(2_000_000))"],
            name="cruncher")
        backend.wait_all()
        record = backend.snapshot(prune=False).records[gpid]
        assert record.rusage["utime_ms"] >= 0
