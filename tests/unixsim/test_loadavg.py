"""Tests for the run-queue load average (Table 1's ``la`` estimator)."""

import pytest

from repro.unixsim import SleeperProgram, SpinnerProgram


def test_idle_host_has_near_zero_load(world, alpha):
    world.run_for(60_000.0)
    assert alpha.load_average() < 0.05


def test_one_spinner_converges_to_one(world, alpha):
    alpha.spawn_user_process("lfc", "spin", program=SpinnerProgram(None))
    world.run_for(600_000.0)  # 10 tau
    assert alpha.load_average() == pytest.approx(1.0, abs=0.01)


def test_three_spinners_converge_to_three(world, alpha):
    for _ in range(3):
        alpha.spawn_user_process("lfc", "spin", program=SpinnerProgram(None))
    world.run_for(600_000.0)
    assert alpha.load_average() == pytest.approx(3.0, abs=0.05)


def test_sleepers_do_not_count(world, alpha):
    for _ in range(5):
        alpha.spawn_user_process("lfc", "sleep",
                                 program=SleeperProgram(None))
    world.run_for(600_000.0)
    assert alpha.load_average() < 0.05


def test_load_decays_after_exit(world, alpha):
    alpha.spawn_user_process("lfc", "spin",
                             program=SpinnerProgram(300_000.0))
    world.run_for(300_000.0)
    peak = alpha.load_average()
    world.run_for(300_000.0)
    assert alpha.load_average() < peak / 2


def test_load_rises_monotonically_toward_count(world, alpha):
    alpha.spawn_user_process("lfc", "spin", program=SpinnerProgram(None))
    previous = 0.0
    for _ in range(10):
        world.run_for(30_000.0)
        current = alpha.load_average()
        assert current >= previous
        assert current <= 1.0 + 1e-9
        previous = current


def test_stopped_processes_leave_run_queue(world, alpha):
    from repro.unixsim import Signal
    proc = alpha.spawn_user_process("lfc", "spin",
                                    program=SpinnerProgram(None))
    world.run_for(600_000.0)
    assert alpha.load_average() > 0.9
    alpha.kernel.kill(proc.pid, Signal.SIGSTOP, sender_uid=1001)
    world.run_for(600_000.0)
    assert alpha.load_average() < 0.05


def test_force_pins_value(world, alpha):
    alpha.kernel.loadavg.force(2.5)
    assert alpha.load_average() == pytest.approx(2.5)
    # Decays back toward the true runnable count afterwards.
    world.run_for(600_000.0)
    assert alpha.load_average() < 0.1


def test_idle_fast_path_skips_exp_without_changing_value(world, alpha):
    from repro.perf import PERF

    world.run_for(60_000.0)
    assert alpha.load_average() == 0.0  # truly idle: la == n == 0
    PERF.reset()
    world.run_for(60_000.0)
    value = alpha.load_average()
    assert value == 0.0
    # Every lazy integration on the idle host took the steady-state
    # short cut (la' = n + (la-n)*decay == la when la == n).
    assert PERF.loadavg_idle_skips >= 1


def test_fast_path_is_exact_not_approximate():
    from repro.perf import PERF
    from repro.unixsim.loadavg import LoadAverage

    clock = [0.0]
    runnable = [2]
    la = LoadAverage(lambda: clock[0], lambda: runnable[0],
                     tau_ms=1_000.0)
    la.force(2.0)  # converged: la == n == 2
    PERF.reset()
    clock[0] = 5_000.0
    assert la.value() == 2.0
    assert PERF.loadavg_idle_skips == 1
    # A change in the runnable count leaves the fast path.
    runnable[0] = 0
    la.note_change()
    clock[0] = 10_000.0
    before = PERF.loadavg_idle_skips
    assert 0.0 < la.value() < 2.0  # genuine exponential decay resumed
    assert PERF.loadavg_idle_skips == before


def test_value_never_reads_the_runnable_count():
    from repro.unixsim.loadavg import LoadAverage

    clock = [0.0]
    runnable = [1]
    reads = [0]

    def counting_runnable():
        reads[0] += 1
        return runnable[0]

    la = LoadAverage(lambda: clock[0], counting_runnable, tau_ms=1_000.0)
    la.note_change()
    before = reads[0]
    for step in range(1, 6):
        clock[0] = step * 500.0
        la.value()
    assert reads[0] == before
    # A run-queue change unseen by note_change stays unseen: value()
    # keeps integrating toward the count the last note_change read.
    runnable[0] = 0
    clock[0] = 50_000.0
    assert la.value() == pytest.approx(1.0)
    la.note_change()
    assert reads[0] == before + 1


def test_halt_empties_the_run_queue_the_estimator_sees(world, alpha):
    alpha.spawn_user_process("lfc", "spin", program=SpinnerProgram(None))
    world.run_for(600_000.0)
    assert alpha.load_average() > 0.9
    alpha.kernel.halt()
    assert alpha.kernel.loadavg._last_n == 0
