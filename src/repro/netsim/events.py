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

from heapq import heapify, heappop
from typing import Callable, Iterator, Optional

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


class EventQueue:
    """Lazily-cancelling heap of events in ``(time, seq)`` order."""

    def __init__(self) -> None:
        #: ``(time_ms, seq, event)`` entries; :meth:`Simulator.schedule`
        #: and :meth:`Simulator.schedule_at` are its only pushers.
        self._heap: list = []
        #: Cancelled events still resident in the heap.
        self._cancelled = 0

    def due(self, time_ms: float) -> Iterator[Event]:
        """Remove and yield, in ``(time, seq)`` order, each live event
        due at or before ``time_ms``; stop when there is none.

        This is the queue's one pop path: the simulator's run loops
        iterate it.  Cancelled events at the head are dropped on the
        way.  The heap is read afresh for every event, because a
        callback run between two yields may cancel enough events to
        :meth:`_compact`, which replaces the heap list.
        """
        while True:
            heap = self._heap
            if not heap:
                return
            due, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._queue = None
                self._cancelled -= 1
            elif due > time_ms:
                return
            else:
                heappop(heap)
                event._queue = None
                event.fired = True
                yield event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)[2]._queue = None
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _note_event_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for a resident event."""
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
        heapify(survivors)
        self._heap = survivors
        self._cancelled = 0
        PERF.heap_compactions += 1

    def __len__(self) -> int:
        """Live events in the queue, counted over the heap when asked
        (O(n)): an oracle for tests, never on the run path."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)
