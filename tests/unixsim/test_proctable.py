"""Tests for the process table: pid allocation, wrap-around, lookups."""

import pytest

from repro.errors import NoSuchProcessError, SimulationError
from repro.unixsim import Process, ProcState
from repro.unixsim.proctable import PID_MAX, ProcessTable


def proc(pid, uid=1001, state=ProcState.RUNNING):
    return Process(pid=pid, ppid=1, uid=uid, command="x", state=state)


def test_allocate_monotonic():
    table = ProcessTable()
    first = table.allocate_pid()
    table.insert(proc(first))
    second = table.allocate_pid()
    assert second == first + 1


def test_allocator_skips_in_use_pids():
    table = ProcessTable()
    table.insert(proc(1))
    table.insert(proc(2))
    table._next_pid = 2
    pid = table.allocate_pid()
    assert pid == 3


def test_wraps_at_pid_max_preserving_init():
    table = ProcessTable()
    table.insert(proc(1))  # init
    table._next_pid = PID_MAX
    pid = table.allocate_pid()
    assert pid == PID_MAX
    # The next allocation wraps to 2, never recycling pid 1.
    next_pid = table.allocate_pid()
    assert next_pid == 2


def test_full_table_raises():
    table = ProcessTable()
    for pid in range(1, PID_MAX + 1):
        table._procs[pid] = proc(pid)
    with pytest.raises(SimulationError):
        table.allocate_pid()


def test_duplicate_insert_rejected():
    table = ProcessTable()
    table.insert(proc(5))
    with pytest.raises(SimulationError):
        table.insert(proc(5))


def test_get_and_find():
    table = ProcessTable()
    table.insert(proc(5))
    assert table.get(5).pid == 5
    assert table.find(6) is None
    with pytest.raises(NoSuchProcessError):
        table.get(6)


def test_by_uid_and_alive():
    table = ProcessTable()
    table.insert(proc(1, uid=0))
    table.insert(proc(2, uid=1001))
    table.insert(proc(3, uid=1001, state=ProcState.ZOMBIE))
    assert {p.pid for p in table.by_uid(1001)} == {2, 3}
    assert {p.pid for p in table.alive_by_uid(1001)} == {2}


def test_running_count_excludes_non_runnable():
    table = ProcessTable()
    table.insert(proc(1, state=ProcState.RUNNING))
    table.insert(proc(2, state=ProcState.SLEEPING))
    table.insert(proc(3, state=ProcState.STOPPED))
    assert table.running_count() == 1


def test_children_and_zombies():
    table = ProcessTable()
    parent = proc(1)
    parent.children = [2, 3, 99]  # 99 is gone
    table.insert(parent)
    table.insert(proc(2))
    table.insert(proc(3, state=ProcState.ZOMBIE))
    assert {p.pid for p in table.children_of(1)} == {2, 3}
    assert [p.pid for p in table.zombies_of(1)] == [3]
    assert table.children_of(404) == []


def test_iteration_is_snapshot_safe():
    table = ProcessTable()
    table.insert(proc(1))
    table.insert(proc(2))
    for p in table:
        table.remove(p.pid)  # must not blow up mid-iteration
    assert list(table) == []
