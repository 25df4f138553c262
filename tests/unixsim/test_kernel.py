"""Tests for the simulated kernel: syscalls, signals, adoption, and the
kernel->LPM message path."""

import pytest

from repro.errors import (
    AdoptionError,
    NoSuchProcessError,
    ProcessPermissionError,
    SimulationError,
)
from repro.unixsim import (
    KernelEvent,
    ProcState,
    Signal,
    SpinnerProgram,
    TraceFlag,
)
from repro.unixsim.kernel import INIT_PID


@pytest.fixture
def kernel(alpha):
    return alpha.kernel


def test_init_exists(kernel):
    init = kernel.procs.get(INIT_PID)
    assert init.command == "init"
    assert init.uid == 0


def test_spawn_links_parent_and_child(kernel):
    proc = kernel.spawn(1001, "job")
    assert proc.ppid == INIT_PID
    assert proc.pid in kernel.procs.get(INIT_PID).children
    assert proc.state is ProcState.RUNNING


def test_fork_inherits_identity(kernel):
    parent = kernel.spawn(1001, "shell")
    child = kernel.fork(parent.pid)
    assert child.uid == parent.uid
    assert child.command == parent.command
    assert child.ppid == parent.pid
    assert parent.rusage.forks == 1


def test_exec_replaces_image(kernel):
    proc = kernel.spawn(1001, "shell")
    kernel.exec(proc.pid, "compiler", ("-O",))
    assert proc.command == "compiler"
    assert proc.args == ("-O",)


def test_exec_disarms_old_program_timers(kernel, world):
    # The old image's exit timer must not kill the new image.
    proc = kernel.spawn(1001, "short",
                        program=SpinnerProgram(1_000.0))
    kernel.exec(proc.pid, "long", program=SpinnerProgram(60_000.0))
    world.run_for(5_000.0)
    assert proc.alive  # the 1-second timer died with the old image
    world.run_for(60_000.0)
    assert not proc.alive  # the new image's timer ran its course


def test_exit_makes_zombie_then_parent_reaps(kernel):
    parent = kernel.spawn(1001, "shell")
    child = kernel.spawn(1001, "job", ppid=parent.pid)
    kernel.exit(child.pid, status=3)
    assert child.state is ProcState.ZOMBIE
    assert child.exit_status == 3
    reaped = kernel.reap(parent.pid)
    assert reaped == [child]
    assert child.state is ProcState.DEAD
    assert kernel.procs.find(child.pid) is None


def test_children_of_init_reaped_automatically(kernel):
    proc = kernel.spawn(1001, "job")  # child of init
    kernel.exit(proc.pid)
    assert proc.state is ProcState.DEAD
    assert kernel.procs.find(proc.pid) is None


def test_orphans_reparented_to_init(kernel):
    parent = kernel.spawn(1001, "shell")
    child = kernel.spawn(1001, "job", ppid=parent.pid)
    kernel.exit(parent.pid)
    assert child.ppid == INIT_PID
    assert child.pid in kernel.procs.get(INIT_PID).children


def test_zombie_child_reaped_when_parent_dies(kernel):
    parent = kernel.spawn(1001, "shell")
    child = kernel.spawn(1001, "job", ppid=parent.pid)
    kernel.exit(child.pid)
    assert child.state is ProcState.ZOMBIE
    kernel.exit(parent.pid)
    assert child.state is ProcState.DEAD


def test_exit_idempotent(kernel):
    proc = kernel.spawn(1001, "job")
    kernel.exit(proc.pid)
    kernel.exit(proc.pid)  # no error


class TestSignals:
    def test_sigkill_terminates(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.kill(proc.pid, Signal.SIGKILL, sender_uid=1001)
        assert not proc.alive
        assert proc.term_signal == int(Signal.SIGKILL)
        assert proc.exit_status == 128 + 9

    def test_sigstop_and_sigcont(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        assert proc.state is ProcState.STOPPED
        kernel.kill(proc.pid, Signal.SIGCONT, sender_uid=1001)
        assert proc.state is ProcState.RUNNING

    def test_sigcont_resumes_prior_state(self, kernel):
        proc = kernel.spawn(1001, "job", state=ProcState.SLEEPING)
        kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        kernel.kill(proc.pid, Signal.SIGCONT, sender_uid=1001)
        assert proc.state is ProcState.SLEEPING

    def test_sigchld_ignored(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.kill(proc.pid, Signal.SIGCHLD, sender_uid=1001)
        assert proc.state is ProcState.RUNNING

    def test_cross_user_signal_denied(self, kernel):
        proc = kernel.spawn(1001, "job")
        with pytest.raises(ProcessPermissionError):
            kernel.kill(proc.pid, Signal.SIGKILL, sender_uid=1002)
        assert proc.alive

    def test_root_may_signal_anyone(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.kill(proc.pid, Signal.SIGKILL, sender_uid=0)
        assert not proc.alive

    def test_signal_to_missing_pid(self, kernel):
        with pytest.raises(NoSuchProcessError):
            kernel.kill(9999, Signal.SIGKILL, sender_uid=0)

    def test_signal_to_zombie_discarded(self, kernel):
        parent = kernel.spawn(1001, "shell")
        child = kernel.spawn(1001, "job", ppid=parent.pid)
        kernel.exit(child.pid)
        kernel.kill(child.pid, Signal.SIGKILL, sender_uid=1001)  # no error

    def test_double_stop_is_noop(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        assert proc.state is ProcState.STOPPED

    def test_signals_counted_in_rusage(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        kernel.kill(proc.pid, Signal.SIGCONT, sender_uid=1001)
        assert proc.rusage.signals_received == 2


class TestForegroundBackground:
    def test_toggle(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.set_foreground(proc.pid, False, sender_uid=1001)
        assert not proc.foreground
        kernel.set_foreground(proc.pid, True, sender_uid=1001)
        assert proc.foreground

    def test_cross_user_denied(self, kernel):
        proc = kernel.spawn(1001, "job")
        with pytest.raises(ProcessPermissionError):
            kernel.set_foreground(proc.pid, False, sender_uid=1002)


class TestAdoption:
    def test_adopt_sets_flags(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.adopt(1001, proc.pid, TraceFlag.FORK | TraceFlag.EXIT)
        assert proc.adopted_by_uid == 1001
        assert proc.trace_flags == TraceFlag.FORK | TraceFlag.EXIT

    def test_adoption_fails_across_users(self, kernel):
        # "The adoption operations fail if the process and the PPM belong
        # to different users."
        proc = kernel.spawn(1001, "job")
        with pytest.raises(AdoptionError):
            kernel.adopt(1002, proc.pid)

    def test_children_inherit_adoption(self, kernel):
        proc = kernel.spawn(1001, "shell")
        kernel.adopt(1001, proc.pid, TraceFlag.ALL)
        child = kernel.fork(proc.pid)
        assert child.adopted_by_uid == 1001
        assert child.trace_flags == TraceFlag.ALL

    def test_set_trace_flags_requires_adoption(self, kernel):
        proc = kernel.spawn(1001, "job")
        with pytest.raises(AdoptionError):
            kernel.set_trace_flags(1001, proc.pid, TraceFlag.EXIT)
        kernel.adopt(1001, proc.pid)
        kernel.set_trace_flags(1001, proc.pid, TraceFlag.EXIT)
        assert proc.trace_flags == TraceFlag.EXIT

    def test_adopt_dead_process_fails(self, kernel):
        proc = kernel.spawn(1001, "job")
        kernel.exit(proc.pid)
        with pytest.raises(NoSuchProcessError):
            kernel.adopt(1001, proc.pid)


class TestKernelMessages:
    def events_of(self, world, kernel, uid=1001, flags=TraceFlag.ALL):
        """Adopt-and-collect helper: returns (proc, received list)."""
        received = []
        kernel.register_lpm(uid, received.append)
        proc = kernel.spawn(uid, "job")
        kernel.adopt(uid, proc.pid, flags)
        return proc, received

    def test_exit_event_delivered_with_delay(self, world, alpha):
        proc, received = self.events_of(world, alpha.kernel)
        start = world.now_ms
        alpha.kernel.exit(proc.pid, status=7)
        assert received == []  # not synchronous
        world.run_for(100.0)
        assert len(received) == 1
        message = received[0]
        assert message.event is KernelEvent.EXIT
        assert message.pid == proc.pid
        assert message.details["status"] == 7
        # Light load on a VAX 11/780: Table 1 says 7.2 ms.
        assert message.timestamp_ms == start

    def test_delivery_time_matches_table1(self, world, alpha):
        proc, received = self.events_of(world, alpha.kernel)
        alpha.kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        world.run_until_true(lambda: len(received) >= 1)
        # SIGNAL + STOPPED both queued at the same instant; delivery
        # occurred ~7.2 ms later (VAX 780, la ~ 0).
        assert world.now_ms == pytest.approx(7.2, abs=0.5)

    def test_no_messages_without_registration(self, world, alpha):
        proc = alpha.kernel.spawn(1001, "job")
        alpha.kernel.adopt(1001, proc.pid)
        alpha.kernel.exit(proc.pid)
        world.run_for(100.0)
        assert alpha.kernel.messages_posted == 0

    def test_untraced_process_suppressed(self, world, alpha):
        received = []
        alpha.kernel.register_lpm(1001, received.append)
        proc = alpha.kernel.spawn(1001, "job")  # never adopted
        alpha.kernel.exit(proc.pid)
        world.run_for(100.0)
        assert received == []
        assert alpha.kernel.messages_suppressed > 0

    def test_flag_granularity_respected(self, world, alpha):
        proc, received = self.events_of(world, alpha.kernel,
                                        flags=TraceFlag.EXIT)
        alpha.kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
        alpha.kernel.kill(proc.pid, Signal.SIGCONT, sender_uid=1001)
        alpha.kernel.exit(proc.pid)
        world.run_for(200.0)
        assert [m.event for m in received] == [KernelEvent.EXIT]

    def test_fork_events_from_descendants(self, world, alpha):
        proc, received = self.events_of(world, alpha.kernel)
        child = alpha.kernel.fork(proc.pid)
        grandchild = alpha.kernel.fork(child.pid)
        world.run_for(200.0)
        fork_events = [m for m in received if m.event is KernelEvent.FORK]
        assert {m.pid for m in fork_events} == {child.pid, grandchild.pid}

    def test_resource_details_on_exit(self, world, alpha):
        proc, received = self.events_of(world, alpha.kernel)
        world.run_for(500.0)
        alpha.kernel.exit(proc.pid)
        world.run_for(100.0)
        exit_messages = [m for m in received if m.event is KernelEvent.EXIT]
        assert exit_messages[0].details["rusage"]["utime_ms"] > 0

    def test_unregister_stops_delivery(self, world, alpha):
        proc, received = self.events_of(world, alpha.kernel)
        alpha.kernel.unregister_lpm(1001)
        alpha.kernel.exit(proc.pid)
        world.run_for(100.0)
        assert received == []


class TestHalt:
    def test_halt_kills_everything(self, world, alpha):
        proc = alpha.kernel.spawn(1001, "job",
                                  program=SpinnerProgram(60_000.0))
        alpha.kernel.halt()
        assert not proc.alive
        with pytest.raises(SimulationError):
            alpha.kernel.spawn(1001, "late")

    def test_no_message_delivery_after_halt(self, world, alpha):
        received = []
        alpha.kernel.register_lpm(1001, received.append)
        proc = alpha.kernel.spawn(1001, "job")
        alpha.kernel.adopt(1001, proc.pid)
        alpha.kernel.exit(proc.pid)  # message scheduled
        alpha.kernel.halt()
        world.run_for(100.0)
        assert received == []
