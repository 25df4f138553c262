"""Property-based state-machine test for the simulated kernel.

Random sequences of syscalls (spawn, fork, exit, signals, reap, open,
close) against invariants that must hold after every step:

* parent/child links are mutually consistent;
* the run-queue count equals the number of RUNNING processes, and the
  load average's last-read count equals it too (so ``LoadAverage.value``
  may integrate without re-reading it);
* no reaped (DEAD) process remains in the table;
* every zombie's resources are finalised;
* descriptor tables only exist on live processes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoSuchProcessError, ProcessPermissionError
from repro.netsim import HostClass, Simulator
from repro.unixsim.kernel import INIT_PID, Kernel
from repro.unixsim.process import ProcState
from repro.unixsim.signals import Signal

OPS = st.sampled_from(["spawn", "fork", "exit", "stop", "cont",
                       "kill", "term", "reap", "open", "close",
                       "advance"])


def check_invariants(kernel: Kernel) -> None:
    table = kernel.procs
    running = 0
    for proc in table:
        assert proc.state is not ProcState.DEAD, \
            "reaped process still in table"
        if proc.state is ProcState.RUNNING:
            running += 1
        # Parent/child mutual consistency.
        for child_pid in proc.children:
            child = table.find(child_pid)
            if child is not None:
                assert child.ppid == proc.pid
        parent = table.find(proc.ppid)
        if parent is not None and proc.pid != INIT_PID:
            assert proc.pid in parent.children
        if proc.state is ProcState.ZOMBIE:
            assert proc.end_ms is not None
            assert not proc.fd_table, "zombie with open descriptors"
    assert table.running_count() == running
    assert kernel.loadavg._last_n == running


@given(st.lists(st.tuples(OPS, st.integers(min_value=0, max_value=30)),
                min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_random_syscall_sequences_preserve_invariants(steps):
    sim = Simulator(seed=5)
    kernel = Kernel(sim, "host", HostClass.VAX_780)
    pids = []
    fds = {}

    def pick(index):
        return pids[index % len(pids)] if pids else None

    for op, index in steps:
        target = pick(index)
        try:
            if op == "spawn":
                proc = kernel.spawn(1001, "job%d" % len(pids))
                pids.append(proc.pid)
            elif op == "fork" and target is not None:
                proc = kernel.fork(target)
                pids.append(proc.pid)
            elif op == "exit" and target is not None:
                kernel.exit(target, status=index % 3)
            elif op == "stop" and target is not None:
                kernel.kill(target, Signal.SIGSTOP, sender_uid=1001)
            elif op == "cont" and target is not None:
                kernel.kill(target, Signal.SIGCONT, sender_uid=1001)
            elif op == "kill" and target is not None:
                kernel.kill(target, Signal.SIGKILL, sender_uid=1001)
            elif op == "term" and target is not None:
                kernel.kill(target, Signal.SIGTERM, sender_uid=1001)
            elif op == "reap" and target is not None:
                kernel.reap(target)
            elif op == "open" and target is not None:
                fd = kernel.open_file(target, "/f%d" % index)
                fds.setdefault(target, []).append(fd)
            elif op == "close" and target is not None:
                open_fds = fds.get(target, [])
                if open_fds:
                    kernel.close_file(target, open_fds.pop())
            elif op == "advance":
                sim.run_for(float(index + 1))
        except (NoSuchProcessError, ProcessPermissionError):
            pass  # racing a dead target is legal; invariants must hold
        check_invariants(kernel)

    # Drain: kill everything, reap through init, table returns to just
    # init (plus nothing else).
    for pid in pids:
        try:
            kernel.kill(pid, Signal.SIGKILL, sender_uid=1001)
        except (NoSuchProcessError, ProcessPermissionError):
            pass
        check_invariants(kernel)
    sim.run_for(1_000.0)
    for pid in pids:
        kernel.reap(pid) if kernel.procs.find(pid) else None
    kernel.reap(INIT_PID)
    check_invariants(kernel)
    survivors = [proc.pid for proc in kernel.procs if proc.alive]
    assert survivors == [INIT_PID]
