"""The discrete-event simulation driver.

The :class:`Simulator` owns the clock and the event queue.  All higher
layers (hosts, daemons, LPMs, tools) are callback-driven state machines:
they never block, they only schedule future work.  Given a seed, a run is
fully deterministic.
"""

from __future__ import annotations

import random
from heapq import heappush
from itertools import islice
from typing import Callable, Optional

from ..errors import SimulationError
from ..perf import PERF
from .events import Event, EventQueue


class Simulator:
    """Clock plus event queue plus a seeded random source."""

    def __init__(self, seed: int = 0, start_ms: float = 0.0) -> None:
        #: Current simulated time in milliseconds; never decreases.
        self.now_ms = float(start_ms)
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self._seq = 0
        #: Optional :class:`repro.perf.spans.SpanTracer`; None keeps
        #: every instrumentation site zero-cost.
        self.tracer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ms: float, callback: Callable[..., None],
                 *args) -> Event:
        """Run ``callback(*args)`` after ``delay_ms`` simulated ms.

        Every timer and delivery comes through here or
        :meth:`schedule_at`, the queue's only pushers; each builds its
        event and pushes it onto the heap itself rather than calling
        down a chain.
        """
        if delay_ms < 0:
            raise SimulationError("cannot schedule into the past "
                                  "(delay_ms=%r)" % (delay_ms,))
        PERF.events_scheduled += 1
        self._seq = seq = self._seq + 1
        time_ms = self.now_ms + delay_ms
        queue = self.queue
        event = Event(time_ms, seq, callback, args)
        event._queue = queue
        heappush(queue._heap, (time_ms, seq, event))
        return event

    def schedule_at(self, time_ms: float, callback: Callable[..., None],
                    *args) -> Event:
        """Run ``callback(*args)`` at absolute simulated time ``time_ms``."""
        if time_ms < self.now_ms:
            raise SimulationError(
                "cannot schedule into the past (t=%.3f, now=%.3f)"
                % (time_ms, self.now_ms))
        PERF.events_scheduled += 1
        self._seq = seq = self._seq + 1
        time_ms = float(time_ms)
        queue = self.queue
        event = Event(time_ms, seq, callback, args)
        event._queue = queue
        heappush(queue._heap, (time_ms, seq, event))
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a scheduled event; safe on None, already-cancelled,
        and already-fired events.

        All queue bookkeeping happens inside :meth:`Event.cancel`, and
        an event that was already popped for execution is a no-op here
        (``events_cancelled`` counts only events genuinely prevented
        from firing) — so re-arming timer owners may cancel a stale
        reference without drifting any counter.
        """
        if event is None or event.cancelled or event.fired:
            return
        PERF.events_cancelled += 1
        event.cancel()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def _fire(self, event: Event) -> None:
        self.now_ms = event.time_ms
        callback, args = event.callback, event.args
        event.callback, event.args = None, ()
        PERF.events_run += 1
        callback(*args)

    def _due_by(self, time_ms: float) -> bool:
        """True when a live event is scheduled at or before ``time_ms``."""
        next_time = self.queue.peek_time()
        return next_time is not None and next_time <= time_ms

    def run_until(self, time_ms: float, max_events: int = 10_000_000) -> None:
        """Run every event scheduled at or before ``time_ms``.

        The clock ends exactly at ``time_ms`` even if the queue drains
        early, so timers keep a consistent reference point.
        """
        for event in islice(self.queue.due(time_ms), max_events):
            self._fire(event)
        # The queue stops only when nothing is due, so a due event left
        # over means the loop stopped at ``max_events``.
        if self._due_by(time_ms):
            raise SimulationError(
                "run_until(%.3f) exceeded %d events; likely a scheduling "
                "loop" % (time_ms, max_events))
        if time_ms > self.now_ms:
            self.now_ms = float(time_ms)

    def run_for(self, duration_ms: float, max_events: int = 10_000_000) -> None:
        """Run the next ``duration_ms`` of simulated time."""
        self.run_until(self.now_ms + duration_ms, max_events=max_events)

    def run_until_true(self, predicate: Callable[[], bool],
                       timeout_ms: float = 600_000.0,
                       max_events: int = 10_000_000) -> bool:
        """Run until ``predicate()`` holds or ``timeout_ms`` passes.

        Returns True if the predicate became true.  The predicate is
        checked after every executed event.  On a timeout the clock
        ends exactly on the deadline, like :meth:`run_until`; events
        later than the deadline stay queued.

        Every session spends its events here, so the fire step of
        :meth:`_fire` is inlined rather than called.
        """
        deadline = self.now_ms + timeout_ms
        if predicate():
            return True
        for event in islice(self.queue.due(deadline), max_events):
            self.now_ms = event.time_ms
            callback, args = event.callback, event.args
            event.callback, event.args = None, ()
            PERF.events_run += 1
            callback(*args)
            if predicate():
                return True
        # As in run_until: a due event left over means max_events.
        if self._due_by(deadline):
            raise SimulationError(
                "run_until_true exceeded %d events" % (max_events,))
        if deadline < self.now_ms:
            raise SimulationError(
                "run_until_true: negative timeout_ms=%r" % (timeout_ms,))
        self.now_ms = deadline
        return False
