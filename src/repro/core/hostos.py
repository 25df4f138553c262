"""The host-OS contract: what the protocol stack asks of a host's kernel.

In the paper the LPM touches its host only through a narrow surface:
system calls, plus the fork/exec/exit/state-change messages the
modified kernel deposits on the LPM's kernel socket (sections 2 and 4).
This module holds the types that socket carries, :class:`HostKernel`,
the methods :mod:`repro.core` calls on a kernel, and :class:`HostServices`,
everything else an LPM asks of its host.  :class:`repro.unixsim.kernel.Kernel`
and :class:`repro.unixsim.host.Host` implement them; ``docs/BACKENDS.md``
says what the real backend still lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntFlag
from typing import Any, Callable, List, Optional, Protocol, Tuple

from ..config import KERNEL_MESSAGE_BYTES
from ..latency import HostClass
from .control import ControlAction


class ProcState(Enum):
    """Scheduling states.  Only RUNNING processes sit on the run queue
    and therefore contribute to the load average."""

    RUNNING = "running"
    SLEEPING = "sleeping"
    STOPPED = "stopped"
    ZOMBIE = "zombie"
    #: Reaped and gone from the process table; kept on the record the LPM
    #: retains ("we chose to retain exit information while there are
    #: children alive", section 2).
    DEAD = "dead"

    @property
    def alive(self) -> bool:
        return self not in _GONE


#: The states of a process that has exited (a module tuple: reading
#: enum members off the class costs a metaclass lookup each).
_GONE = (ProcState.ZOMBIE, ProcState.DEAD)


class TraceFlag(IntFlag):
    """Event classes an adopted process reports to its LPM.

    The amount of recording is user-settable (section 2: LPMs "accept
    parameters that determine the amount of process events recorded").
    """

    NONE = 0
    FORK = 1
    EXEC = 2
    EXIT = 4
    SIGNAL = 8
    STATE = 16  # stop/continue transitions
    RESOURCE = 32  # rusage samples at exit
    FILES = 64  # file open/close activity (the section 7 files tool)
    ALL = FORK | EXEC | EXIT | SIGNAL | STATE | RESOURCE | FILES


#: Mapping between config-file flag names and TraceFlag bits.
TRACE_FLAG_NAMES = {
    "fork": TraceFlag.FORK,
    "exec": TraceFlag.EXEC,
    "exit": TraceFlag.EXIT,
    "signal": TraceFlag.SIGNAL,
    "state": TraceFlag.STATE,
    "resource": TraceFlag.RESOURCE,
    "files": TraceFlag.FILES,
    "all": TraceFlag.ALL,
}


def trace_flags_from_names(names) -> TraceFlag:
    """Combine flag names (as stored in :class:`repro.config.PPMConfig`)."""
    flags = TraceFlag.NONE
    for name in names:
        flags |= TRACE_FLAG_NAMES[name]
    return flags


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


class HostKernel(Protocol):
    """The kernel calls :mod:`repro.core` makes on ``host.kernel``.

    A process record (what ``spawn`` and ``adopt`` return and ``procs``
    finds) carries ``pid``, ``ppid``, ``command``, ``state``, ``alive``,
    ``start_ms``, ``end_ms``, ``exit_status``, ``foreground``,
    ``rusage`` (``utime_ms``, ``forks``, ``signals_received``),
    ``fd_table`` and ``closed_files``.  ``procs`` answers ``find(pid)``,
    ``children_of(pid)`` and ``alive_by_uid(uid)``; ``loadavg`` answers
    ``value()``.  ``program`` is an opaque spec the kernel interprets.
    """

    procs: Any
    loadavg: Any
    halted: bool

    def spawn(self, uid: int, command: str, args: Tuple[str, ...] = (),
              program: Optional[dict] = None, ppid: int = 1,
              state: ProcState = ProcState.RUNNING,
              foreground: bool = True) -> Any: ...

    def exit(self, pid: int, status: int = 0,
             term_signal: Optional[int] = None) -> None: ...

    def control(self, pid: int, action: ControlAction,
                sender_uid: int) -> None: ...

    def adopt(self, lpm_uid: int, pid: int,
              flags: TraceFlag = TraceFlag.ALL) -> Any: ...

    def set_trace_flags(self, lpm_uid: int, pid: int,
                        flags: TraceFlag) -> None: ...

    def register_lpm(self, uid: int,
                     deliver: Callable[[KernelMessage], None]) -> None: ...

    def unregister_lpm(self, uid: int) -> None: ...


class HostServices(Protocol):
    """What a :class:`~repro.core.lpm.LocalProcessManager` asks of the
    host it runs on (its ``host``): the kernel, the password file, the
    user's ``.recovery`` file, the service table its accept socket
    listens in, and the pmd's record of the LPM.

    Every member is read late: a reboot replaces ``kernel``, so an LPM
    keeps the host, never a copy of a member.
    """

    name: str
    host_class: HostClass
    kernel: HostKernel

    @property
    def up(self) -> bool: ...

    def uid_of(self, user: str) -> int: ...

    def read_recovery_file(self, user: str) -> List[str]: ...

    def listen(self, service: str,
               acceptor: Callable[[Any, Any], None]) -> None: ...

    def unlisten(self, service: str) -> None: ...

    def forget_lpm(self, user: str) -> None: ...
