"""Regression tests for event-queue compaction and same-instant order.

The queue may rebuild itself when cancelled residents dominate; none of
that is allowed to change *what* runs or *in which order* — the
``(time, seq)`` total order is the determinism contract every
experiment's byte-identical outputs rest on.
"""

import math
import random

import pytest

from repro.netsim.events import COMPACT_MIN_CANCELLED
from repro.netsim.simulator import Simulator
from repro.perf import PERF


def _noop() -> None:
    pass


def test_compaction_triggers_and_preserves_pop_order():
    rng = random.Random(42)
    sim = Simulator()
    events = [sim.schedule_at(rng.uniform(0, 1000.0), _noop)
              for _ in range(500)]
    compactions = PERF.heap_compactions
    survivors = []
    for event in events:
        if rng.random() < 0.7:
            event.cancel()
        else:
            survivors.append(event)
    assert PERF.heap_compactions > compactions, \
        "70% of 500 cancelled must compact"
    assert len(sim.queue) == len(survivors)
    expected = sorted(survivors, key=lambda e: (e.time_ms, e.seq))
    assert list(sim.queue.due(math.inf)) == expected


def test_cancelled_events_never_fire_across_compaction():
    sim = Simulator(seed=1)
    fired = []
    keep, cancel = [], []
    compactions = PERF.heap_compactions
    for i in range(3 * COMPACT_MIN_CANCELLED):
        event = sim.schedule(float(i), fired.append, i)
        (keep if i % 3 == 0 else cancel).append((i, event))
    for _i, event in cancel:
        sim.cancel(event)
    assert PERF.heap_compactions > compactions
    sim.run_until(float(3 * COMPACT_MIN_CANCELLED))
    assert fired == [i for i, _e in keep]


def test_len_invariant_with_mixed_cancel_paths():
    sim = Simulator(seed=2)
    events = [sim.schedule(float(i), _noop) for i in range(10)]
    # Every historical cancellation style must hit the single
    # bookkeeping path exactly once.
    sim.cancel(events[0])                      # simulator API
    events[1].cancel()                         # direct event API
    events[2].cancel()
    sim.cancel(events[0])                      # double-cancel: ignored
    events[1].cancel()
    assert len(sim.queue) == 7
    sim.run_until(10.0)
    assert len(sim.queue) == 0


def test_cancel_after_firing_does_not_corrupt_len():
    sim = Simulator(seed=3)
    event = sim.schedule(1.0, _noop)
    sim.schedule(2.0, _noop)
    sim.run_until(1.0)
    # Cancelling an event that already ran leaves the heap untouched.
    event.cancel()
    sim.cancel(event)
    assert len(sim.queue) == 1
    sim.run_until(2.0)
    assert len(sim.queue) == 0


def test_same_time_rescheduling_keeps_scheduling_order():
    sim = Simulator(seed=4)
    fired = []

    def cascade(depth: int) -> None:
        fired.append(depth)
        if depth < 5:
            # Zero-delay re-scheduling at the executing instant: the
            # heap's seq tie-break keeps scheduling order.
            sim.schedule(0.0, cascade, depth + 1)

    sim.schedule(10.0, cascade, 0)
    sim.schedule(10.0, fired.append, "sibling")
    sim.run_until(10.0)
    assert fired == [0, "sibling", 1, 2, 3, 4, 5]


def test_interleaved_push_and_pop_keep_time_seq_order():
    rng = random.Random(7)
    sim = Simulator()
    queue = sim.queue
    pushed = []
    popped = []
    now = 0.0
    for _round in range(200):
        for _ in range(rng.randrange(4)):
            event = sim.schedule_at(now + rng.uniform(0.0, 50.0), _noop)
            pushed.append(event)
        if queue and rng.random() < 0.8:
            event = next(queue.due(math.inf))
            now = event.time_ms
            popped.append(event)
    popped.extend(queue.due(math.inf))
    assert popped == sorted(pushed, key=lambda e: (e.time_ms, e.seq))


def test_pop_due_keeps_cancelled_count_right_through_compaction():
    sim = Simulator()
    queue = sim.queue
    events = [sim.schedule_at(float(i), _noop)
              for i in range(1, 3 * COMPACT_MIN_CANCELLED + 1)]
    compactions = PERF.heap_compactions
    # Cancel the earliest few first: they stay resident at the head.
    for event in events[:5]:
        event.cancel()
    assert queue._cancelled == 5 and PERF.heap_compactions == compactions
    # Cancel enough of the rest to force a compaction.
    doomed = [e for e in events[5:] if e.seq % 3]
    for event in doomed:
        event.cancel()
    assert PERF.heap_compactions == compactions + 1
    resident_cancelled = sum(1 for entry in queue._heap if entry[2].cancelled)
    assert queue._cancelled == resident_cancelled
    survivors = [e for e in events if not e.cancelled]
    assert len(queue) == len(survivors)
    assert list(queue.due(events[-1].time_ms)) == survivors
    assert queue._cancelled == 0
    assert queue._heap == []
    assert all(e._queue is None for e in events)


@pytest.mark.parametrize("stop", ["predicate", "timeout"])
def test_compaction_mid_run_until_true_fires_each_live_event_once(stop):
    # A callback cancels enough events to compact the queue, which
    # rebuilds the heap list while the run loop is between two events.
    # The loop must go on from the rebuilt heap: every live event fires
    # once, in (time, seq) order, and none fires again afterwards.
    sim = Simulator(seed=5)
    compactions, events_run = PERF.heap_compactions, PERF.events_run
    fired = []
    victims = [sim.schedule(2.0 + i % 5, fired.append, ("victim", i))
               for i in range(2 * COMPACT_MIN_CANCELLED)]
    live = [(2.0 + i % 3, sim.schedule(2.0 + i % 3, fired.append, i))
            for i in range(COMPACT_MIN_CANCELLED // 4)]

    def cancel_victims() -> None:
        fired.append("cancel")
        for event in victims:
            sim.cancel(event)

    sim.schedule(1.0, cancel_victims)
    expected = ["cancel"] + [
        i for i, _ in sorted(enumerate(live),
                             key=lambda item: (item[1][0], item[1][1].seq))]
    if stop == "predicate":
        assert sim.run_until_true(lambda: len(fired) == len(expected),
                                  timeout_ms=100.0)
        assert sim.now_ms == max(time_ms for time_ms, _ in live)
    else:
        assert not sim.run_until_true(lambda: False, timeout_ms=100.0)
        assert sim.now_ms == 100.0
    assert PERF.heap_compactions == compactions + 1
    assert fired == expected
    assert len(sim.queue) == 0
    assert PERF.events_run - events_run == len(expected)
    sim.run_for(1_000.0)
    assert fired == expected
    assert PERF.events_run - events_run == len(expected)
