"""Regression tests for event-queue compaction and same-instant order.

The queue may rebuild itself when cancelled residents dominate; none of
that is allowed to change *what* runs or *in which order* — the
``(time, seq)`` total order is the determinism contract every
experiment's byte-identical outputs rest on.
"""

import random

from repro.netsim.events import COMPACT_MIN_CANCELLED, Event, EventQueue
from repro.netsim.simulator import Simulator


def _noop() -> None:
    pass


def test_compaction_triggers_and_preserves_pop_order():
    rng = random.Random(42)
    queue = EventQueue()
    events = [Event(rng.uniform(0, 1000.0), seq, _noop, ())
              for seq in range(1, 501)]
    for event in events:
        queue.push(event)
    survivors = []
    for event in events:
        if rng.random() < 0.7:
            event.cancel()
        else:
            survivors.append(event)
    assert queue.compactions > 0, "70% of 500 cancelled must compact"
    assert len(queue) == len(survivors)
    expected = sorted(survivors, key=lambda e: (e.time_ms, e.seq))
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event)
    assert popped == expected


def test_cancelled_events_never_fire_across_compaction():
    sim = Simulator(seed=1)
    fired = []
    keep, cancel = [], []
    for i in range(3 * COMPACT_MIN_CANCELLED):
        event = sim.schedule(float(i), fired.append, i)
        (keep if i % 3 == 0 else cancel).append((i, event))
    for _i, event in cancel:
        sim.cancel(event)
    assert sim.queue.compactions > 0
    sim.run_until_idle()
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
    sim.run_until_idle()
    assert len(sim.queue) == 0


def test_cancel_after_firing_does_not_corrupt_len():
    sim = Simulator(seed=3)
    event = sim.schedule(1.0, _noop)
    sim.schedule(2.0, _noop)
    sim.step()
    # The old queue drifted negative here: cancelling an event that
    # already ran decremented the live counter anyway.
    event.cancel()
    sim.cancel(event)
    assert len(sim.queue) == 1
    sim.run_until_idle()
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
    sim.run_until_idle()
    assert fired == [0, "sibling", 1, 2, 3, 4, 5]


def test_interleaved_push_and_pop_keep_time_seq_order():
    rng = random.Random(7)
    queue = EventQueue()
    seq = 0
    pushed = []
    popped = []
    now = 0.0
    for _round in range(200):
        for _ in range(rng.randrange(4)):
            seq += 1
            event = Event(now + rng.uniform(0.0, 50.0), seq, _noop, ())
            queue.push(event)
            pushed.append(event)
        if queue and rng.random() < 0.8:
            event = queue.pop()
            now = event.time_ms
            popped.append(event)
    while queue:
        popped.append(queue.pop())
    assert popped == sorted(pushed, key=lambda e: (e.time_ms, e.seq))


def test_pop_due_keeps_cancelled_count_right_through_compaction():
    queue = EventQueue()
    events = [Event(float(i), i, _noop, ())
              for i in range(1, 3 * COMPACT_MIN_CANCELLED + 1)]
    for event in events:
        queue.push(event)
    # Cancel the earliest few first: they stay resident at the head.
    for event in events[:5]:
        event.cancel()
    assert queue._cancelled == 5 and queue.compactions == 0
    # Cancel enough of the rest to force a compaction.
    doomed = [e for e in events[5:] if e.seq % 3]
    for event in doomed:
        event.cancel()
    assert queue.compactions == 1
    resident_cancelled = sum(1 for entry in queue._heap if entry[2].cancelled)
    assert queue._cancelled == resident_cancelled
    survivors = [e for e in events if not e.cancelled]
    assert len(queue) == len(survivors)
    popped = []
    while True:
        event = queue.pop_due(events[-1].time_ms)
        if event is None:
            break
        popped.append(event)
    assert popped == survivors
    assert queue._cancelled == 0
    assert queue._heap == []
    assert all(e._queue is None for e in events)
