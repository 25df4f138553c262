"""Trace-event vocabulary.

Every observable action in the reproduction — kernel events relayed to
an LPM, LPM lifecycle steps, connections, broadcasts, recovery moves —
is recorded as a :class:`TraceEvent`.  The granularity of recording is
user-settable per session (section 2: the LPMs "accept parameters that
determine the amount of process events recorded").
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..ids import GlobalPid


class TraceEventType(Enum):
    """Everything the recorder knows how to label."""

    # Kernel-originated process events (relayed via the kernel socket).
    FORK = "fork"
    EXEC = "exec"
    EXIT = "exit"
    SIGNAL = "signal"
    STOPPED = "stopped"
    CONTINUED = "continued"
    FILE_OPENED = "file_opened"
    FILE_CLOSED = "file_closed"

    # PPM lifecycle.
    LPM_CREATED = "lpm_created"
    LPM_EXPIRED = "lpm_expired"
    LPM_DIED = "lpm_died"
    ADOPTED = "adopted"
    PROCESS_CREATED = "process_created"

    # The four numbered steps of Figure 2.
    CREATION_STEP = "creation_step"

    # Communication infrastructure.
    CONN_OPEN = "conn_open"
    CONN_CLOSED = "conn_closed"
    TOOL_REQUEST = "tool_request"
    SIBLING_MESSAGE = "sibling_message"
    USER_IPC = "user_ipc"
    BROADCAST_SENT = "broadcast_sent"
    BROADCAST_FORWARDED = "broadcast_forwarded"
    BROADCAST_DUPLICATE = "broadcast_duplicate"
    ROUTE_LEARNED = "route_learned"
    KERNEL_MESSAGE = "kernel_message"

    # Crash recovery (section 5).
    FAILURE_DETECTED = "failure_detected"
    CCS_CONTACTED = "ccs_contacted"
    CCS_SEARCH = "ccs_search"
    CCS_ASSUMED = "ccs_assumed"
    CCS_PROBE = "ccs_probe"
    CCS_RELINQUISHED = "ccs_relinquished"
    TIME_TO_DIE_ARMED = "time_to_die_armed"
    TIME_TO_DIE_FIRED = "time_to_die_fired"
    RECOVERY_RESUMED = "recovery_resumed"

    # Triggers.
    TRIGGER_FIRED = "trigger_fired"

    # Continuous watch (repro.ops.watch): a health check crossed its
    # onset or clear edge between two sweeps.
    WATCH_EDGE = "watch_edge"


class Granularity(Enum):
    """How much the recorder keeps, coarse to fine."""

    OFF = 0
    #: Lifecycle only: LPMs, process creation/exit, recovery.
    COARSE = 1
    #: Plus control events: signals, stops, continues, tool requests.
    MEDIUM = 2
    #: Everything, including per-message communication events.
    FINE = 3


#: The event classes admitted at each granularity.
_COARSE = {
    TraceEventType.FORK, TraceEventType.EXEC, TraceEventType.EXIT,
    TraceEventType.LPM_CREATED, TraceEventType.LPM_EXPIRED,
    TraceEventType.LPM_DIED, TraceEventType.ADOPTED,
    TraceEventType.PROCESS_CREATED, TraceEventType.CREATION_STEP,
    TraceEventType.FAILURE_DETECTED, TraceEventType.CCS_CONTACTED,
    TraceEventType.CCS_SEARCH, TraceEventType.CCS_ASSUMED,
    TraceEventType.CCS_PROBE, TraceEventType.CCS_RELINQUISHED,
    TraceEventType.TIME_TO_DIE_ARMED, TraceEventType.TIME_TO_DIE_FIRED,
    TraceEventType.RECOVERY_RESUMED, TraceEventType.TRIGGER_FIRED,
    TraceEventType.WATCH_EDGE,
}
_MEDIUM_EXTRA = {
    TraceEventType.SIGNAL, TraceEventType.STOPPED, TraceEventType.CONTINUED,
    TraceEventType.FILE_OPENED, TraceEventType.FILE_CLOSED,
    TraceEventType.TOOL_REQUEST, TraceEventType.CONN_OPEN,
    TraceEventType.CONN_CLOSED,
}


def admitted(event_type: TraceEventType, granularity: Granularity) -> bool:
    """Whether an event class is recorded at the given granularity."""
    if granularity is Granularity.OFF:
        return False
    if granularity is Granularity.FINE:
        return True
    if event_type in _COARSE:
        return True
    if granularity is Granularity.MEDIUM and event_type in _MEDIUM_EXTRA:
        return True
    return False


class TraceEvent:
    """One recorded occurrence.

    A plain ``__slots__`` class rather than a frozen dataclass: the
    recorder builds one per sibling message, and a frozen dataclass's
    ``__init__`` pays an ``object.__setattr__`` per field.  Equality,
    field order and defaults are a dataclass's; treat instances as
    read-only.
    """

    __slots__ = ("time_ms", "event_type", "host", "user", "gpid", "details")

    def __init__(self, time_ms: float, event_type: TraceEventType,
                 host: str, user: str = "",
                 gpid: Optional[GlobalPid] = None,
                 details: Optional[dict] = None) -> None:
        self.time_ms = time_ms
        self.event_type = event_type
        self.host = host
        self.user = user
        self.gpid = gpid
        self.details = {} if details is None else details

    def _fields(self) -> tuple:
        return (self.time_ms, self.event_type, self.host, self.user,
                self.gpid, self.details)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # details is a dict, so an event was never hashable

    def __repr__(self) -> str:
        return ("TraceEvent(time_ms=%r, event_type=%r, host=%r, user=%r, "
                "gpid=%r, details=%r)" % self._fields())

    def matches(self, event_type: Optional[TraceEventType] = None,
                host: Optional[str] = None,
                gpid: Optional[GlobalPid] = None) -> bool:
        """Simple conjunctive filter used by history queries."""
        if event_type is not None and self.event_type is not event_type:
            return False
        if host is not None and self.host != host:
            return False
        if gpid is not None and self.gpid != gpid:
            return False
        return True

    def __str__(self) -> str:
        subject = str(self.gpid) if self.gpid is not None else self.host
        return "[%10.1f ms] %-20s %s %s" % (
            self.time_ms, self.event_type.value, subject,
            self.details if self.details else "")
