"""Tests for process control blocks, states, flags, and rusage."""

import pytest

from repro.unixsim import Process, ProcState, Rusage, TraceFlag
from repro.core.hostos import trace_flags_from_names


def make(pid=10, state=ProcState.RUNNING):
    return Process(pid=pid, ppid=1, uid=1001, command="work", state=state)


def test_alive_states():
    assert ProcState.RUNNING.alive
    assert ProcState.SLEEPING.alive
    assert ProcState.STOPPED.alive
    assert not ProcState.ZOMBIE.alive
    assert not ProcState.DEAD.alive


def test_trace_flag_combination():
    flags = TraceFlag.FORK | TraceFlag.EXIT
    assert flags & TraceFlag.FORK
    assert not (flags & TraceFlag.SIGNAL)
    assert TraceFlag.ALL & TraceFlag.RESOURCE


def test_trace_flags_from_names():
    flags = trace_flags_from_names(["fork", "exit"])
    assert flags == TraceFlag.FORK | TraceFlag.EXIT
    assert trace_flags_from_names(["all"]) == TraceFlag.ALL
    assert trace_flags_from_names([]) == TraceFlag.NONE
    with pytest.raises(KeyError):
        trace_flags_from_names(["bogus"])


def test_untraced_process_wants_nothing():
    proc = make()
    proc.trace_flags = TraceFlag.ALL
    assert not proc.wants(TraceFlag.FORK)  # not adopted
    proc.adopted_by_uid = 1001
    assert proc.wants(TraceFlag.FORK)


def test_cpu_accounting_only_while_running():
    proc = make()
    proc._state_since_ms = 0.0
    proc.set_state(ProcState.SLEEPING, 100.0)
    assert proc.rusage.utime_ms == pytest.approx(100.0)
    proc.set_state(ProcState.RUNNING, 200.0)
    assert proc.rusage.utime_ms == pytest.approx(100.0)  # slept
    proc.set_state(ProcState.ZOMBIE, 250.0)
    assert proc.rusage.utime_ms == pytest.approx(150.0)


def test_set_state_same_state_is_noop():
    proc = make()
    proc._state_since_ms = 0.0
    proc.set_state(ProcState.RUNNING, 500.0)
    assert proc.rusage.utime_ms == 0.0  # not charged twice


def test_lifetime():
    proc = make()
    proc.start_ms = 100.0
    assert proc.lifetime_ms(400.0) == pytest.approx(300.0)
    proc.end_ms = 250.0
    assert proc.lifetime_ms(400.0) == pytest.approx(150.0)


def test_rusage_merge():
    a = Rusage(utime_ms=10.0, max_rss_kb=100, forks=1)
    b = Rusage(utime_ms=5.0, max_rss_kb=200, signals_received=2)
    merged = a.merged_with(b)
    assert merged.utime_ms == pytest.approx(15.0)
    assert merged.max_rss_kb == 200
    assert merged.forks == 1
    assert merged.signals_received == 2
