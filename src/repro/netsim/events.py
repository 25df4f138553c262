"""Timed events and the event queue.

Events are ordered by ``(time, sequence number)`` so that two events
scheduled for the same instant fire in scheduling order; this keeps every
simulation run deterministic.

The queue is one heap of ``(time_ms, seq, event)`` tuples: sequence
numbers are unique, so every comparison is settled by the first two
fields in C and never reaches the event.  Cancellation is lazy — a
cancelled event sits where it is until popped — but the queue counts
its cancelled residents and compacts itself when they dominate, so a
workload that arms and cancels millions of timers (retransmission,
keepalive) does not drag a graveyard through every subsequent
operation.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from ..perf import PERF

#: Compaction triggers only past this many cancelled residents (small
#: queues never pay the rebuild) and only when they outnumber the live.
COMPACT_MIN_CANCELLED = 64


class Event:
    """One scheduled callback.

    Instances are handed back by :meth:`Simulator.schedule`; holding the
    reference allows cancellation (the simulator skips cancelled events
    instead of removing them from the heap).  ``fired`` marks an event
    that was popped for execution, so an owner can cancel a stale
    reference without miscounting a live cancellation.
    """

    __slots__ = ("time_ms", "seq", "callback", "args", "cancelled", "fired",
                 "_queue")

    def __init__(self, time_ms: float, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.time_ms = time_ms
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self.cancelled = False
        #: True once the event has been popped for execution.
        self.fired = False
        #: The queue currently holding this event; cancellation
        #: bookkeeping flows through this single path.
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent the event from firing; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        queue = self._queue
        if queue is not None:
            queue._note_event_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t=%.3f, seq=%d, %s)" % (self.time_ms, self.seq, state)


class EventQueue:
    """Lazily-cancelling heap of events in ``(time, seq)`` order."""

    def __init__(self) -> None:
        self._heap: list = []
        self._live = 0
        #: Cancelled events still resident in the heap.
        self._cancelled = 0
        self.compactions = 0

    def push(self, event: Event) -> None:
        """Insert ``event``, preserving the ``(time, seq)`` total order."""
        event._queue = self
        heapq.heappush(self._heap, (event.time_ms, event.seq, event))
        self._live += 1

    def pop_due(self, time_ms: float) -> Optional[Event]:
        """Remove and return the earliest live event due at or before
        ``time_ms``, or None when there is none.

        Cancelled events at the head are dropped on the way.
        """
        heap = self._heap
        while heap:
            due, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                event._queue = None
                self._cancelled -= 1
            elif due > time_ms:
                return None
            else:
                heapq.heappop(heap)
                event._queue = None
                event.fired = True
                self._live -= 1
                return event
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when empty."""
        return self.pop_due(math.inf)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._queue = None
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _note_event_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for a resident event."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled >= COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled resident and rebuild the heap.

        Safe for determinism: the heap keeps the same strict
        ``(time, seq)`` order over the surviving events, so pop order is
        unchanged.  Triggered only when cancelled residents outnumber
        live ones, which amortises the rebuild against the cancellations
        that caused it.
        """
        survivors = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2]._queue = None
            else:
                survivors.append(entry)
        heapq.heapify(survivors)
        self._heap = survivors
        self._cancelled = 0
        self.compactions += 1
        PERF.heap_compactions += 1

    def __len__(self) -> int:
        assert self._live >= 0, (
            "event-queue live counter went negative (%d)" % (self._live,))
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None
