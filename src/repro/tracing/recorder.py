"""The trace recorder: an append-only event log with granularity control
and live subscribers (the hook the trigger engine attaches to)."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..ids import GlobalPid
from .events import Granularity, TraceEvent, TraceEventType, admitted

#: Every class is admitted at FINE, the default: skip the lookup.
_FINE = Granularity.FINE


class TraceRecorder:
    """Collects :class:`TraceEvent` records for one world or session.

    The recorder is deliberately dumb storage; querying and aggregation
    live in :mod:`repro.tracing.history` and
    :mod:`repro.tracing.reduction`.
    """

    def __init__(self, now_fn: Callable[[], float],
                 granularity: Granularity = Granularity.FINE,
                 capacity: Optional[int] = None) -> None:
        self._now_fn = now_fn
        self.granularity = granularity
        #: Oldest first; with a ``capacity`` the deque evicts the oldest
        #: event in O(1) as each new one arrives.
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        #: Replaced, never mutated, by (un)subscribe: ``record`` walks
        #: the tuple it read, so a callback may unsubscribe itself.
        self._subscribers: Tuple[Callable[[TraceEvent], None], ...] = ()

    @property
    def capacity(self) -> Optional[int]:
        """Most events kept (None: unbounded); settable at any time,
        keeping the newest."""
        return self.events.maxlen

    @capacity.setter
    def capacity(self, capacity: Optional[int]) -> None:
        self.events = deque(self.events, maxlen=capacity)

    def set_granularity(self, granularity: Granularity) -> None:
        """Adjust how much is recorded from now on."""
        self.granularity = granularity

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Receive every admitted event as it is recorded."""
        self._subscribers += (callback,)

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        if callback in self._subscribers:
            subscribers = list(self._subscribers)
            subscribers.remove(callback)
            self._subscribers = tuple(subscribers)

    def record(self, event_type: TraceEventType, host: str,
               user: str = "", gpid: Optional[GlobalPid] = None,
               **details) -> Optional[TraceEvent]:
        """Record one event; returns it, or None when filtered out."""
        granularity = self.granularity
        if granularity is not _FINE and not admitted(event_type, granularity):
            self.dropped += 1
            return None
        event = TraceEvent(self._now_fn(), event_type, host, user, gpid,
                           details)
        self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def select(self, event_type: Optional[TraceEventType] = None,
               host: Optional[str] = None,
               gpid: Optional[GlobalPid] = None,
               since_ms: Optional[float] = None,
               until_ms: Optional[float] = None) -> List[TraceEvent]:
        """Filtered view of the log."""
        result = []
        for event in self.events:
            if not event.matches(event_type, host, gpid):
                continue
            if since_ms is not None and event.time_ms < since_ms:
                continue
            if until_ms is not None and event.time_ms > until_ms:
                continue
            result.append(event)
        return result

    def count(self, event_type: Optional[TraceEventType] = None) -> int:
        return len(self.select(event_type=event_type))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)
