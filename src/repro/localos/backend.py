"""The real-process manager: a single-host LPM over the local kernel.

The backend is the creation server for its processes (they are children
of this Python process, as PPM processes are children of the LPM),
controls them with genuine signals, tracks descendants through
``/proc``, and retains exit information — the paper's single-host
semantics on real hardware.

Every entry point makes at most one pass over ``/proc`` (``shutdown``
makes two: before the kill and after it).  A pass lists ``/proc`` once
and reads the stat of each live managed process plus each process new
to the machine since the previous pass: the backend keeps the previous
scan's ``{(pid, inode): ppid}`` memory, so :func:`procfs.children_map`
reads only what could have changed, and :meth:`RealBackend.refresh`
hands the one stat it read per live record on to
:meth:`RealBackend.snapshot`.  A reused pid is always read afresh,
because ``/proc/<pid>`` of the new process has a new inode.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.control import ControlAction
from ..core.snapshot import ProcessRecord, SnapshotForest
from ..errors import NoSuchProcessError, PPMError
from ..ids import GlobalPid
from . import procfs

_ACTION_SIGNALS = {
    ControlAction.STOP: signal.SIGSTOP,
    ControlAction.CONTINUE: signal.SIGCONT,
    ControlAction.FOREGROUND: signal.SIGCONT,
    ControlAction.BACKGROUND: signal.SIGCONT,
    ControlAction.TERMINATE: signal.SIGTERM,
    ControlAction.KILL: signal.SIGKILL,
}


@dataclass
class ManagedProcess:
    """One process this backend created (or discovered as a
    descendant)."""

    pid: int
    command: str
    parent: Optional[GlobalPid]
    started_at: float
    #: The child handle, for processes this backend spawned itself;
    #: released once the exit has been reaped.
    popen: Optional[subprocess.Popen] = None
    exited: bool = False
    exit_status: Optional[int] = None
    ended_at: Optional[float] = None
    #: Last CPU usage sampled from /proc before exit.
    last_utime_ms: float = 0.0
    last_stime_ms: float = 0.0
    signals_sent: int = field(default=0)


class RealBackend:
    """Manage real local processes with PPM semantics."""

    def __init__(self, host_name: Optional[str] = None) -> None:
        self.host_name = host_name or socket.gethostname()
        #: Every record, exit records included (section 2: exit
        #: information is retained).
        self._managed: Dict[int, ManagedProcess] = {}
        #: The records not yet seen to exit — what creation, reaping
        #: and /proc sampling walk, so their cost follows the number
        #: of live processes, not the length of the history.
        self._live: Dict[int, ManagedProcess] = {}
        #: The previous /proc scan, ``{(pid, inode): ppid}``, which
        #: :func:`procfs.children_map` keeps up to date.
        self._known: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Creation (the backend is the creation server)
    # ------------------------------------------------------------------

    def spawn(self, argv: Sequence[str], name: Optional[str] = None,
              parent: Optional[GlobalPid] = None) -> GlobalPid:
        """Start a child process; returns its ``<host, pid>`` identity."""
        self._reap()
        popen = subprocess.Popen(
            list(argv), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        record = ManagedProcess(pid=popen.pid,
                                command=name or os.path.basename(argv[0]),
                                parent=parent, started_at=time.time(),
                                popen=popen)
        self._managed[popen.pid] = self._live[popen.pid] = record
        return GlobalPid(self.host_name, popen.pid)

    def _reap(self) -> None:
        """Collect children that have exited, so a killed child is a
        zombie only until the next creation or snapshot."""
        for record in list(self._live.values()):
            if record.popen is not None and record.popen.poll() is not None:
                self._record_exit(record)

    def _record_exit(self, record: ManagedProcess) -> None:
        del self._live[record.pid]
        record.exited = True
        record.ended_at = time.time()
        popen, record.popen = record.popen, None
        if popen is not None:
            try:
                record.exit_status = popen.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                record.exit_status = None

    def _discover_descendants(self) -> None:
        """Adoption of descendants: pull newly forked children of
        managed processes into management via /proc.  An adopted
        process's start time is the kernel's, not the moment a scan
        first saw it."""
        index = procfs.children_map(self._known)
        frontier = list(self._live)
        while frontier:
            pid = frontier.pop()
            for child in index.get(pid, []):
                if child in self._managed:
                    continue
                stat = procfs.read_stat(child)
                if stat is None:
                    continue
                self._managed[child] = self._live[child] = ManagedProcess(
                    pid=child, command=stat.command,
                    parent=GlobalPid(self.host_name, pid),
                    started_at=stat.started_at)
                frontier.append(child)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def refresh(self) -> Dict[int, procfs.ProcStat]:
        """Sample /proc, reap exits, keep exit records (section 2's
        retention rule: exit information survives).  Returns the stat
        read for each record still live, by pid."""
        self._discover_descendants()
        stats: Dict[int, procfs.ProcStat] = {}
        for record in list(self._live.values()):
            stat = procfs.read_stat(record.pid)
            if stat is not None and stat.state != "exited":
                record.last_utime_ms = stat.utime_ms
                record.last_stime_ms = stat.stime_ms
                stats[record.pid] = stat
            else:
                self._record_exit(record)
        return stats

    def state_of(self, gpid: GlobalPid) -> str:
        self._require_local(gpid)
        record = self._managed.get(gpid.pid)
        if record is None:
            raise NoSuchProcessError(str(gpid))
        if record.exited:
            return "exited"
        stat = procfs.read_stat(gpid.pid)
        if stat is None:
            self.refresh()
            return "exited"
        return stat.state

    def managed_pids(self) -> List[int]:
        return sorted(self._managed)

    def manages(self, pid: int) -> bool:
        """Whether ``pid`` is (or was) a process of this backend."""
        return pid in self._managed

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def control(self, gpid: GlobalPid, action: ControlAction) -> None:
        """Deliver a control action by real signal."""
        self._require_local(gpid)
        record = self._managed.get(gpid.pid)
        if record is None:
            raise NoSuchProcessError(str(gpid))
        if record.exited:
            return
        try:
            os.kill(gpid.pid, _ACTION_SIGNALS[action])
            record.signals_sent += 1
        except ProcessLookupError:
            self.refresh()

    def control_tree(self, root: GlobalPid,
                     action: ControlAction) -> List[GlobalPid]:
        """The computation-level broadcast: children before parents."""
        forest = self.snapshot(prune=False)
        targets = [gpid for gpid in forest.descendants(root)
                   if not forest.records[gpid].exited]
        if root in forest and not forest.records[root].exited:
            targets.append(root)
        for gpid in targets:
            self.control(gpid, action)
        return targets

    def wait_all(self, timeout_s: float = 30.0) -> None:
        """Wait for every directly spawned child to finish."""
        deadline = time.time() + timeout_s
        for record in list(self._live.values()):
            if record.popen is None:
                continue
            remaining = max(deadline - time.time(), 0.01)
            try:
                record.popen.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise PPMError("pid %d did not exit in time"
                               % (record.pid,))
        self.refresh()

    # ------------------------------------------------------------------
    # The snapshot tool
    # ------------------------------------------------------------------

    def snapshot(self, prune: bool = True) -> SnapshotForest:
        """The genealogical snapshot, on real processes."""
        stats = self.refresh()
        forest = SnapshotForest(taken_at_ms=time.time() * 1000.0)
        user = str(os.getuid())
        for record in self._managed.values():
            forest.add(ProcessRecord(
                gpid=GlobalPid(self.host_name, record.pid),
                parent=record.parent,
                user=user,
                command=record.command,
                state="exited" if record.exited
                else stats[record.pid].state,
                start_ms=record.started_at * 1000.0,
                end_ms=record.ended_at * 1000.0
                if record.ended_at else None,
                exit_status=record.exit_status,
                rusage={"utime_ms": record.last_utime_ms,
                        "stime_ms": record.last_stime_ms,
                        "signals": record.signals_sent}))
        return forest.prune_exited_leaves() if prune else forest

    def rstats(self) -> List[ProcessRecord]:
        """Exited-process records, for the rstats report."""
        return [record for record in self.snapshot(prune=False).records.values()
                if record.exited]

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Kill everything still alive (the time-to-die action)."""
        self.refresh()
        for record in self._live.values():
            try:
                os.kill(record.pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        for record in self._live.values():
            if record.popen is not None:
                try:
                    record.popen.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        self.refresh()

    def _require_local(self, gpid: GlobalPid) -> None:
        if gpid.host != self.host_name:
            raise PPMError("%s is not on this host (%s)"
                           % (gpid, self.host_name))

    def __enter__(self) -> "RealBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
