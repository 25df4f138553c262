"""Process control blocks.

A :class:`Process` is the simulated PCB: identity, state, genealogy,
resource usage, and the *tracing flags* that adoption installs
("user processes are modified to contain specific tracing flags used
thereafter by the kernel for event detection", section 4 — the mechanism
the paper likens to its METRIC-derived monitor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.hostos import ProcState, TraceFlag


@dataclass(frozen=True)
class OpenFile:
    """One file-descriptor-table entry."""

    fd: int
    path: str
    mode: str
    opened_ms: float


@dataclass(frozen=True)
class ClosedFile:
    """History entry for a file the process no longer holds open."""

    path: str
    mode: str
    opened_ms: float
    closed_ms: float


#: Bound on per-process closed-file history kept in the PCB.
CLOSED_FILE_HISTORY_LIMIT = 64


@dataclass
class Rusage:
    """Resource consumption, the raw material of the paper's
    "exited process resource consumption statistics" tool."""

    utime_ms: float = 0.0
    stime_ms: float = 0.0
    max_rss_kb: int = 0
    signals_received: int = 0
    forks: int = 0
    messages_sent: int = 0

    def merged_with(self, other: "Rusage") -> "Rusage":
        """Sum of two usages (used for per-command aggregation)."""
        return Rusage(
            utime_ms=self.utime_ms + other.utime_ms,
            stime_ms=self.stime_ms + other.stime_ms,
            max_rss_kb=max(self.max_rss_kb, other.max_rss_kb),
            signals_received=self.signals_received + other.signals_received,
            forks=self.forks + other.forks,
            messages_sent=self.messages_sent + other.messages_sent,
        )


@dataclass
class Process:
    """One simulated process control block."""

    pid: int
    ppid: int
    uid: int
    command: str
    args: Tuple[str, ...] = ()
    state: ProcState = ProcState.RUNNING
    start_ms: float = 0.0
    end_ms: Optional[float] = None
    exit_status: Optional[int] = None
    #: Signal that terminated the process, if any.
    term_signal: Optional[int] = None
    children: List[int] = field(default_factory=list)
    trace_flags: TraceFlag = TraceFlag.NONE
    #: uid of the LPM that adopted this process (write access to the PCB
    #: via the extended ptrace of section 4); None when unmanaged.
    adopted_by_uid: Optional[int] = None
    rusage: Rusage = field(default_factory=Rusage)
    foreground: bool = True
    #: Set while the process runs a :class:`repro.unixsim.programs.Program`.
    program: object = None
    #: State to resume into after SIGCONT (RUNNING or SLEEPING).
    resumed_state: Optional[ProcState] = None
    #: File descriptor table: fd -> OpenFile.
    fd_table: dict = field(default_factory=dict)
    #: Recently closed files (bounded history for the files tool).
    closed_files: List[ClosedFile] = field(default_factory=list)
    #: Next descriptor to hand out (0-2 reserved, as in UNIX).
    next_fd: int = 3
    #: Time of the last state transition, for CPU accounting.
    _state_since_ms: float = field(default=0.0, repr=False)

    @property
    def traced(self) -> bool:
        return self.adopted_by_uid is not None

    @property
    def alive(self) -> bool:
        return self.state.alive

    def wants(self, flag: TraceFlag) -> bool:
        """Whether this PCB reports events of the given class."""
        return self.traced and bool(self.trace_flags & flag)

    def charge_cpu(self, now_ms: float) -> None:
        """Accumulate user CPU time for the interval spent RUNNING."""
        if self.state is ProcState.RUNNING:
            self.rusage.utime_ms += now_ms - self._state_since_ms
        self._state_since_ms = now_ms

    def set_state(self, new_state: ProcState, now_ms: float) -> None:
        """Transition with CPU accounting; no-op on same-state."""
        if new_state is self.state:
            return
        self.charge_cpu(now_ms)
        self.state = new_state

    def lifetime_ms(self, now_ms: float) -> float:
        end = self.end_ms if self.end_ms is not None else now_ms
        return end - self.start_ms

    def __repr__(self) -> str:
        return "Process(pid=%d, uid=%d, %s, %s)" % (
            self.pid, self.uid, self.command, self.state.value)
