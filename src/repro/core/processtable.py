"""The LPM's process table: genealogy records and the kernel socket.

Section 4: the LPM tracks "a process and its descendants" through
adoption and the modified syscalls' event messages.  This module owns
the per-LPM record dictionary and every way it changes — kernel event
ingestion, creation as the ready process-creation server, recursive
adoption, and the PCB re-read that keeps snapshots exact — and emits
the serialised, gpid-sorted record runs the gather layer merges.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ids import GlobalPid
from ..tracing.events import TraceEventType
from .hostos import KernelEvent, KernelMessage, ProcState
from .snapshot import ProcessRecord

#: Commands that are PPM infrastructure, never part of the user's
#: computation (excluded from snapshots and TTL liveness checks).
INFRA_COMMANDS = frozenset({"lpm", "lpm-handler"})

_KERNEL_TO_TRACE = {
    KernelEvent.FORK: TraceEventType.FORK,
    KernelEvent.EXEC: TraceEventType.EXEC,
    KernelEvent.EXIT: TraceEventType.EXIT,
    KernelEvent.SIGNAL: TraceEventType.SIGNAL,
    KernelEvent.STOPPED: TraceEventType.STOPPED,
    KernelEvent.CONTINUED: TraceEventType.CONTINUED,
    KernelEvent.FILE_OPENED: TraceEventType.FILE_OPENED,
    KernelEvent.FILE_CLOSED: TraceEventType.FILE_CLOSED,
}

_STATE_NAMES = {
    ProcState.RUNNING: "running",
    ProcState.SLEEPING: "sleeping",
    ProcState.STOPPED: "stopped",
    ProcState.ZOMBIE: "exited",
    ProcState.DEAD: "exited",
}


class ProcessTable:
    """Genealogy records of one LPM's local processes."""

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.records: Dict[int, ProcessRecord] = {}

    # ------------------------------------------------------------------
    # The kernel socket
    # ------------------------------------------------------------------

    def on_kernel_message(self, kmsg: KernelMessage) -> None:
        lpm = self.lpm
        if not lpm.is_running():
            return
        gpid = lpm.gpid_of(kmsg.pid)
        lpm._trace(TraceEventType.KERNEL_MESSAGE, gpid=gpid,
                   event=kmsg.event.value)
        trace_type = _KERNEL_TO_TRACE[kmsg.event]
        lpm._trace(trace_type, gpid=gpid, **dict(kmsg.details))
        record = self.records.get(kmsg.pid)
        if kmsg.event is KernelEvent.FORK:
            if kmsg.pid not in self.records and \
                    kmsg.command not in INFRA_COMMANDS:
                parent_gpid = lpm.gpid_of(kmsg.ppid) \
                    if kmsg.ppid in self.records else None
                self.records[kmsg.pid] = ProcessRecord(
                    gpid=gpid, parent=parent_gpid, user=lpm.user,
                    command=kmsg.command, state="running",
                    start_ms=kmsg.timestamp_ms)
        elif record is not None:
            if kmsg.event is KernelEvent.EXEC:
                record.command = kmsg.details.get("command", record.command)
            elif kmsg.event is KernelEvent.EXIT:
                record.state = "exited"
                record.end_ms = kmsg.timestamp_ms
                record.exit_status = kmsg.details.get("status")
                if "rusage" in kmsg.details:
                    record.rusage = dict(kmsg.details["rusage"])
                lpm._arm_ttl()
            elif kmsg.event is KernelEvent.STOPPED:
                record.state = "stopped"
            elif kmsg.event is KernelEvent.CONTINUED:
                record.state = "running"

    # ------------------------------------------------------------------
    # Creation and adoption
    # ------------------------------------------------------------------

    def create_local_process(self, command: str, args=(), program_spec=None,
                             parent: Optional[GlobalPid] = None,
                             foreground: bool = True):
        """Create (and adopt) a user process with this LPM as creation
        server; returns the kernel process."""
        lpm = self.lpm
        proc = lpm.host.kernel.spawn(lpm.uid, command, tuple(args),
                                     program=program_spec,
                                     ppid=lpm.proc.pid,
                                     foreground=foreground)
        lpm.host.kernel.adopt(lpm.uid, proc.pid, lpm.trace_flags)
        self.records[proc.pid] = ProcessRecord(
            gpid=lpm.gpid_of(proc.pid), parent=parent, user=lpm.user,
            command=command, state=_STATE_NAMES[proc.state],
            start_ms=proc.start_ms, foreground=foreground)
        lpm._trace(TraceEventType.PROCESS_CREATED,
                   gpid=lpm.gpid_of(proc.pid), command=command)
        lpm._cancel_ttl()
        return proc

    def adopt_process(self, pid: int) -> List[int]:
        """Adopt an existing process and its live descendants
        ("Adoption allows the LPM to keep track of a process and its
        descendants", section 4).  Returns the pids adopted."""
        lpm = self.lpm
        kernel = lpm.host.kernel
        adopted = []
        stack = [pid]
        while stack:
            current = stack.pop()
            proc = kernel.adopt(lpm.uid, current, lpm.trace_flags)
            if current not in self.records:
                parent_gpid = lpm.gpid_of(proc.ppid) \
                    if proc.ppid in self.records else None
                self.records[current] = ProcessRecord(
                    gpid=lpm.gpid_of(current), parent=parent_gpid,
                    user=lpm.user, command=proc.command,
                    state=_STATE_NAMES[proc.state], start_ms=proc.start_ms,
                    foreground=proc.foreground)
            lpm._trace(TraceEventType.ADOPTED, gpid=lpm.gpid_of(current))
            adopted.append(current)
            stack.extend(child.pid for child in kernel.procs.children_of(
                current) if child.alive)
        lpm._cancel_ttl()
        return adopted

    # ------------------------------------------------------------------
    # Serialisation for gathers
    # ------------------------------------------------------------------

    def refresh_records(self) -> None:
        """Re-read local PCBs (the LPM has ptrace access) so a snapshot
        reflects states the delayed kernel messages have not delivered
        yet."""
        kernel = self.lpm.host.kernel
        for pid, record in self.records.items():
            proc = kernel.procs.find(pid)
            if proc is None:
                if record.state != "exited":
                    record.state = "exited"
                continue
            record.state = _STATE_NAMES[proc.state]
            record.foreground = proc.foreground
            if proc.end_ms is not None:
                record.end_ms = proc.end_ms
                record.exit_status = proc.exit_status
            record.rusage = {"utime_ms": proc.rusage.utime_ms,
                             "forks": proc.rusage.forks,
                             "signals": proc.rusage.signals_received}
            # The LPM reads the descriptor table straight from the PCB
            # (ptrace access), feeding the section 7 files/fd tools.
            record.open_files = [
                {"fd": entry.fd, "path": entry.path, "mode": entry.mode,
                 "opened_ms": entry.opened_ms}
                for entry in sorted(proc.fd_table.values(),
                                    key=lambda e: e.fd)]
            record.closed_files = [
                {"path": entry.path, "mode": entry.mode,
                 "opened_ms": entry.opened_ms,
                 "closed_ms": entry.closed_ms}
                for entry in proc.closed_files]

    def local_records(self, what: str = "snapshot") -> List[dict]:
        """Serialised record list for a gather: one run sorted by
        ``(host, pid)`` — the host is constant here, so pid order — which
        the gather layer's stable sort takes over as a ready-made run."""
        self.refresh_records()
        records = [self.records[pid] for pid in sorted(self.records)]
        if what == "rstats":
            records = [r for r in records if r.exited]
        return [record.to_dict() for record in records]
