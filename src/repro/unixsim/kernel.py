"""The simulated 4.3BSD kernel of one host.

Implements the system-call surface the PPM depends on: fork / exec /
exit / kill / wait, the extended ``ptrace`` used for adoption (granting
the LPM write access to the process control block, section 4), and the
modified system calls that post event messages to a registered LPM's
kernel socket.

The paper's efficiency claims are preserved structurally:

* "The runtime overhead for the users not requiring the PPM is
  negligible, as it only involves comparing to zero the value of a
  variable" (section 6) — :meth:`Kernel._post_event` begins with exactly
  such a check (no registered hooks, untraced process) before any work.

* "The code added to the system calls typically amounts to a 40 line
  message delivery function" — :meth:`Kernel._deliver_kernel_message` is
  that function; its cost is Table 1's load- and CPU-class-dependent
  delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..config import KERNEL_MESSAGE_BYTES
from ..errors import (
    AdoptionError,
    NoSuchProcessError,
    ProcessPermissionError,
    SimulationError,
)
from ..latency import kernel_message_delay_ms
from .loadavg import LoadAverage
from .process import (
    CLOSED_FILE_HISTORY_LIMIT,
    ClosedFile,
    OpenFile,
    Process,
    ProcState,
    TraceFlag,
)
from .proctable import ProcessTable
from .signals import Signal, SignalAction, default_action

#: uid of the superuser.
ROOT_UID = 0
#: pid of init, the adopter of orphans.
INIT_PID = 1


class KernelEvent(Enum):
    """Event classes posted to an LPM's kernel socket."""

    FORK = "fork"
    EXEC = "exec"
    EXIT = "exit"
    SIGNAL = "signal"
    STOPPED = "stopped"
    CONTINUED = "continued"
    FILE_OPENED = "file_opened"
    FILE_CLOSED = "file_closed"


#: Which tracing flag gates each event class.
_EVENT_FLAG = {
    KernelEvent.FORK: TraceFlag.FORK,
    KernelEvent.EXEC: TraceFlag.EXEC,
    KernelEvent.EXIT: TraceFlag.EXIT,
    KernelEvent.SIGNAL: TraceFlag.SIGNAL,
    KernelEvent.STOPPED: TraceFlag.STATE,
    KernelEvent.CONTINUED: TraceFlag.STATE,
    KernelEvent.FILE_OPENED: TraceFlag.FILES,
    KernelEvent.FILE_CLOSED: TraceFlag.FILES,
}


@dataclass
class KernelMessage:
    """The 112-byte message deposited on the LPM's kernel socket."""

    event: KernelEvent
    host: str
    pid: int
    ppid: int
    uid: int
    command: str
    timestamp_ms: float
    details: dict = field(default_factory=dict)
    size_bytes: int = KERNEL_MESSAGE_BYTES


class Kernel:
    """Process management syscalls for one simulated host."""

    def __init__(self, sim, host_name: str, host_class) -> None:
        self.sim = sim
        self.host_name = host_name
        self.host_class = host_class
        #: Back-reference set by the owning Host (None in bare tests).
        self.host = None
        self.procs = ProcessTable()
        self.loadavg = LoadAverage(lambda: sim.now_ms,
                                   self.procs.running_count)
        #: uid -> callable(KernelMessage); the per-user LPM kernel socket.
        self._lpm_hooks: Dict[int, Callable[[KernelMessage], None]] = {}
        self.halted = False
        self.messages_posted = 0
        self.messages_suppressed = 0
        self._boot_init()

    def _boot_init(self) -> None:
        init = Process(pid=INIT_PID, ppid=0, uid=ROOT_UID, command="init",
                       state=ProcState.SLEEPING, start_ms=self.sim.now_ms)
        init._state_since_ms = self.sim.now_ms
        self.procs.insert(init)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def spawn(self, uid: int, command: str, args: Tuple[str, ...] = (),
              program=None, ppid: int = INIT_PID,
              state: ProcState = ProcState.RUNNING,
              foreground: bool = True) -> Process:
        """fork+exec in one step, the common path for daemons and logins."""
        self._check_running()
        parent = self.procs.get(ppid)
        pid = self.procs.allocate_pid()
        proc = Process(pid=pid, ppid=ppid, uid=uid, command=command,
                       args=tuple(args), state=state,
                       start_ms=self.sim.now_ms, foreground=foreground,
                       program=program)
        proc._state_since_ms = self.sim.now_ms
        # Children of an adopted parent inherit adoption and flags, which
        # is how the LPM tracks "a process and its descendants".
        if parent.traced and parent.uid == uid:
            proc.adopted_by_uid = parent.adopted_by_uid
            proc.trace_flags = parent.trace_flags
        self.procs.insert(proc)
        parent.children.append(pid)
        parent.rusage.forks += 1
        self.loadavg.note_change()
        self._post_event(proc, KernelEvent.FORK,
                         {"parent": ppid, "command": command})
        if program is not None:
            program.start(self, proc)
        return proc

    def fork(self, parent_pid: int) -> Process:
        """Plain fork: the child runs the parent's image."""
        parent = self.procs.get(parent_pid)
        return self.spawn(parent.uid, parent.command, parent.args,
                          ppid=parent_pid, state=ProcState.RUNNING,
                          foreground=parent.foreground)

    def exec(self, pid: int, command: str, args: Tuple[str, ...] = (),
             program=None) -> None:
        """Replace the image of a live process."""
        self._check_running()
        proc = self._require_alive(pid)
        proc.command = command
        proc.args = tuple(args)
        if program is not None:
            # The old image ceases to exist: its timers must not
            # outlive it (exec(2) semantics).
            if proc.program is not None:
                proc.program.on_exit(self, proc)
            proc.program = program
            program.start(self, proc)
        self._post_event(proc, KernelEvent.EXEC, {"command": command})

    # ------------------------------------------------------------------
    # Files (the section 7 open/closed-files and descriptor tools read
    # what these syscalls maintain)
    # ------------------------------------------------------------------

    def open_file(self, pid: int, path: str, mode: str = "r") -> int:
        """open(2): allocate a descriptor for ``path``."""
        self._check_running()
        proc = self._require_alive(pid)
        fd = proc.next_fd
        proc.next_fd += 1
        proc.fd_table[fd] = OpenFile(fd=fd, path=path, mode=mode,
                                     opened_ms=self.sim.now_ms)
        self._post_event(proc, KernelEvent.FILE_OPENED,
                         {"fd": fd, "path": path, "mode": mode})
        return fd

    def close_file(self, pid: int, fd: int) -> None:
        """close(2)."""
        self._check_running()
        proc = self._require_alive(pid)
        entry = proc.fd_table.pop(fd, None)
        if entry is None:
            raise NoSuchProcessError("pid %d has no fd %d" % (pid, fd))
        self._record_closed(proc, entry)
        self._post_event(proc, KernelEvent.FILE_CLOSED,
                         {"fd": fd, "path": entry.path})

    def dup_file(self, pid: int, fd: int) -> int:
        """dup(2): a second descriptor for the same open file."""
        self._check_running()
        proc = self._require_alive(pid)
        entry = proc.fd_table.get(fd)
        if entry is None:
            raise NoSuchProcessError("pid %d has no fd %d" % (pid, fd))
        new_fd = proc.next_fd
        proc.next_fd += 1
        proc.fd_table[new_fd] = OpenFile(fd=new_fd, path=entry.path,
                                         mode=entry.mode,
                                         opened_ms=self.sim.now_ms)
        self._post_event(proc, KernelEvent.FILE_OPENED,
                         {"fd": new_fd, "path": entry.path,
                          "mode": entry.mode, "dup_of": fd})
        return new_fd

    def _record_closed(self, proc: Process, entry: OpenFile) -> None:
        proc.closed_files.append(ClosedFile(
            path=entry.path, mode=entry.mode, opened_ms=entry.opened_ms,
            closed_ms=self.sim.now_ms))
        if len(proc.closed_files) > CLOSED_FILE_HISTORY_LIMIT:
            del proc.closed_files[0]

    def _close_all_files(self, proc: Process) -> None:
        """Exit closes every descriptor, as the kernel does."""
        for entry in list(proc.fd_table.values()):
            self._record_closed(proc, entry)
        proc.fd_table.clear()

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------

    def exit(self, pid: int, status: int = 0,
             term_signal: Optional[Signal] = None) -> None:
        """Voluntary or signal-forced termination."""
        self._check_running()
        proc = self.procs.find(pid)
        if proc is None or not proc.alive:
            return
        if proc.program is not None:
            proc.program.on_exit(self, proc)
        self._close_all_files(proc)
        proc.set_state(ProcState.ZOMBIE, self.sim.now_ms)
        proc.end_ms = self.sim.now_ms
        proc.exit_status = status
        proc.term_signal = int(term_signal) if term_signal else None
        self.loadavg.note_change()
        details = {"status": status}
        if term_signal is not None:
            details["signal"] = int(term_signal)
        if proc.wants(TraceFlag.RESOURCE):
            details["rusage"] = {
                "utime_ms": proc.rusage.utime_ms,
                "forks": proc.rusage.forks,
                "signals": proc.rusage.signals_received,
            }
        self._post_event(proc, KernelEvent.EXIT, details)
        # Orphaned children go to init; zombie children of the dead
        # process are reaped by init immediately.
        for child in self.procs.children_of(pid):
            child.ppid = INIT_PID
            init = self.procs.get(INIT_PID)
            if child.pid not in init.children:
                init.children.append(child.pid)
            if child.state is ProcState.ZOMBIE:
                self._reap_one(child)
        proc.children.clear()
        # init reaps what nobody will wait for.
        parent = self.procs.find(proc.ppid)
        if parent is None or not parent.alive or proc.ppid == INIT_PID:
            self._reap_one(proc)

    def reap(self, parent_pid: int) -> List[Process]:
        """wait(2): collect the caller's zombie children."""
        self._check_running()
        collected = []
        for zombie in self.procs.zombies_of(parent_pid):
            self._reap_one(zombie)
            collected.append(zombie)
        return collected

    def _reap_one(self, proc: Process) -> None:
        proc.state = ProcState.DEAD
        parent = self.procs.find(proc.ppid)
        if parent is not None and proc.pid in parent.children:
            parent.children.remove(proc.pid)
        self.procs.remove(proc.pid)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def kill(self, pid: int, signal: Signal, sender_uid: int) -> None:
        """Deliver a software interrupt, with uid permission checks."""
        self._check_running()
        proc = self.procs.find(pid)
        if proc is None or proc.state is ProcState.DEAD:
            raise NoSuchProcessError(str(pid))
        if sender_uid != ROOT_UID and sender_uid != proc.uid:
            raise ProcessPermissionError(
                "uid %d may not signal pid %d (uid %d)"
                % (sender_uid, pid, proc.uid))
        if proc.state is ProcState.ZOMBIE:
            return  # accepted and discarded, as in UNIX
        proc.rusage.signals_received += 1
        self._post_event(proc, KernelEvent.SIGNAL, {"signal": int(signal)})
        action = default_action(signal)
        if action is SignalAction.IGNORE:
            return
        if action is SignalAction.TERMINATE:
            self.exit(pid, status=128 + int(signal), term_signal=signal)
        elif action is SignalAction.STOP:
            self._stop(proc)
        elif action is SignalAction.CONTINUE:
            self._continue(proc)

    def _stop(self, proc: Process) -> None:
        if proc.state is ProcState.STOPPED:
            return
        was = proc.state
        proc.set_state(ProcState.STOPPED, self.sim.now_ms)
        proc.resumed_state = was
        if proc.program is not None:
            proc.program.on_stop(self, proc)
        self.loadavg.note_change()
        self._post_event(proc, KernelEvent.STOPPED, {})

    def _continue(self, proc: Process) -> None:
        if proc.state is not ProcState.STOPPED:
            return
        resumed = getattr(proc, "resumed_state", ProcState.RUNNING)
        proc.set_state(resumed, self.sim.now_ms)
        if proc.program is not None:
            proc.program.on_continue(self, proc)
        self.loadavg.note_change()
        self._post_event(proc, KernelEvent.CONTINUED, {})

    def set_foreground(self, pid: int, foreground: bool,
                       sender_uid: int) -> None:
        """Move a process between foreground and background execution."""
        proc = self._require_alive(pid)
        if sender_uid != ROOT_UID and sender_uid != proc.uid:
            raise ProcessPermissionError(
                "uid %d may not control pid %d" % (sender_uid, pid))
        proc.foreground = foreground

    # ------------------------------------------------------------------
    # Adoption (the extended ptrace of section 4)
    # ------------------------------------------------------------------

    def adopt(self, lpm_uid: int, pid: int,
              flags: TraceFlag = TraceFlag.ALL) -> Process:
        """Grant the user's LPM write access to the PCB and install
        tracing flags.  Fails across users."""
        self._check_running()
        proc = self._require_alive(pid)
        if proc.uid != lpm_uid:
            raise AdoptionError(
                "process %d belongs to uid %d, not uid %d"
                % (pid, proc.uid, lpm_uid))
        proc.adopted_by_uid = lpm_uid
        proc.trace_flags = flags
        return proc

    def set_trace_flags(self, lpm_uid: int, pid: int,
                        flags: TraceFlag) -> None:
        """Adjust the amount of event recording for one process."""
        proc = self._require_alive(pid)
        if proc.adopted_by_uid != lpm_uid:
            raise AdoptionError("process %d is not adopted by uid %d"
                                % (pid, lpm_uid))
        proc.trace_flags = flags

    # ------------------------------------------------------------------
    # The kernel socket (Table 1's measured path)
    # ------------------------------------------------------------------

    def register_lpm(self, uid: int,
                     deliver: Callable[[KernelMessage], None]) -> None:
        """Attach the LPM's kernel socket for one user."""
        self._lpm_hooks[uid] = deliver

    def unregister_lpm(self, uid: int) -> None:
        self._lpm_hooks.pop(uid, None)

    def has_lpm(self, uid: int) -> bool:
        return uid in self._lpm_hooks

    def _post_event(self, proc: Process, event: KernelEvent,
                    details: dict) -> None:
        # The negligible-overhead fast path: nothing registered, or the
        # process carries no tracing flags.
        if not self._lpm_hooks:
            return
        if not proc.wants(_EVENT_FLAG[event]):
            self.messages_suppressed += 1
            return
        hook = self._lpm_hooks.get(proc.adopted_by_uid)
        if hook is None:
            self.messages_suppressed += 1
            return
        message = KernelMessage(event=event, host=self.host_name,
                                pid=proc.pid, ppid=proc.ppid, uid=proc.uid,
                                command=proc.command,
                                timestamp_ms=self.sim.now_ms,
                                details=dict(details))
        self._deliver_kernel_message(hook, message)

    def _deliver_kernel_message(self, hook: Callable[[KernelMessage], None],
                                message: KernelMessage) -> None:
        """The "40 line message delivery function" added to the system
        calls; its latency is Table 1's calibrated cost."""
        delay = kernel_message_delay_ms(self.host_class,
                                        self.loadavg.value(),
                                        message.size_bytes)
        self.messages_posted += 1

        def deliver() -> None:
            if self.halted:
                return
            hook(message)

        self.sim.schedule(delay, deliver)

    # ------------------------------------------------------------------
    # Host failure
    # ------------------------------------------------------------------

    def halt(self) -> None:
        """Host crash: every process ceases instantly; nothing is saved."""
        self.halted = True
        for proc in self.procs:
            if proc.program is not None:
                proc.program.on_halt(self, proc)
            proc.state = ProcState.DEAD
        self.loadavg.note_change()
        self._lpm_hooks.clear()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_running(self) -> None:
        if self.halted:
            raise SimulationError("kernel on %s is halted" % (self.host_name,))

    def _require_alive(self, pid: int) -> Process:
        proc = self.procs.find(pid)
        if proc is None or not proc.alive:
            raise NoSuchProcessError(str(pid))
        return proc
