"""The per-host process table: pid allocation and lookups."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import NoSuchProcessError, SimulationError
from .process import Process, ProcState

#: pids wrap at this bound, as in classic UNIX.
PID_MAX = 30_000


class ProcessTable:
    """All processes on one host, keyed by pid."""

    def __init__(self) -> None:
        self._procs: Dict[int, Process] = {}
        self._next_pid = 1

    def allocate_pid(self) -> int:
        """Smallest-effort allocator: increments and wraps, skipping
        pids still in use."""
        for _ in range(PID_MAX):
            pid = self._next_pid
            self._next_pid += 1
            if self._next_pid > PID_MAX:
                self._next_pid = 2  # pid 1 is init, never recycled
            if pid not in self._procs:
                return pid
        raise SimulationError("process table full")

    def insert(self, proc: Process) -> None:
        if proc.pid in self._procs:
            raise SimulationError("pid %d already in table" % (proc.pid,))
        self._procs[proc.pid] = proc

    def get(self, pid: int) -> Process:
        try:
            return self._procs[pid]
        except KeyError:
            raise NoSuchProcessError(str(pid)) from None

    def find(self, pid: int) -> Optional[Process]:
        return self._procs.get(pid)

    def remove(self, pid: int) -> None:
        self._procs.pop(pid, None)

    def __iter__(self) -> Iterator[Process]:
        return iter(list(self._procs.values()))

    def by_uid(self, uid: int) -> List[Process]:
        return [p for p in self._procs.values() if p.uid == uid]

    def alive_by_uid(self, uid: int) -> List[Process]:
        return [p for p in self._procs.values()
                if p.uid == uid and p.alive]

    def running_count(self) -> int:
        """Size of the run queue (RUNNING processes)."""
        return sum(1 for p in self._procs.values()
                   if p.state is ProcState.RUNNING)

    def children_of(self, pid: int) -> List[Process]:
        parent = self.find(pid)
        if parent is None:
            return []
        return [self._procs[c] for c in parent.children if c in self._procs]

    def zombies_of(self, pid: int) -> List[Process]:
        return [p for p in self.children_of(pid)
                if p.state is ProcState.ZOMBIE]
