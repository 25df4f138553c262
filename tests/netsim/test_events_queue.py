"""Direct tests and properties for the event queue.

Events go in through :meth:`Simulator.schedule_at`, the queue's only
pusher, and come out through :meth:`EventQueue.due`, its only pop path.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.perf import PERF
from repro.netsim import Network, Simulator, StreamConnection


def _noop():
    pass


def first_due(queue, time_ms=math.inf):
    """The earliest live event due by ``time_ms``, removed, or None."""
    return next(queue.due(time_ms), None)


class TestEventQueue:
    def test_pop_order(self):
        sim = Simulator()
        for time_ms in [30.0, 10.0, 20.0]:
            sim.schedule_at(time_ms, _noop)
        times = [event.time_ms for event in sim.queue.due(math.inf)]
        assert times == [10.0, 20.0, 30.0]
        assert first_due(sim.queue) is None

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        keep = sim.schedule_at(10.0, _noop)
        drop = sim.schedule_at(5.0, _noop)
        drop.cancel()
        assert sim.queue.peek_time() == 10.0
        assert first_due(sim.queue) is keep
        assert len(sim.queue) == 0

    def test_bool_and_len(self):
        # Truth falls back on the O(n) __len__: empty is false.
        sim = Simulator()
        assert not sim.queue
        event = sim.schedule_at(1.0, _noop)
        assert sim.queue
        assert len(sim.queue) == 1
        event.cancel()
        assert not sim.queue and len(sim.queue._heap) == 1

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False),
                              st.booleans()),
                    max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_pop_always_nondecreasing(self, entries):
        sim = Simulator()
        for time_ms, cancel in entries:
            event = sim.schedule_at(time_ms, _noop)
            if cancel:
                event.cancel()
        previous = -1.0
        for event in sim.queue.due(math.inf):
            assert event.time_ms >= previous
            assert not event.cancelled
            previous = event.time_ms
        assert len(sim.queue) == 0

    def test_pop_due_honours_its_deadline(self):
        sim = Simulator()
        queue = sim.queue
        late = sim.schedule_at(20.0, _noop)
        early = sim.schedule_at(10.0, _noop)
        assert first_due(queue, 5.0) is None
        assert len(queue) == 2
        assert first_due(queue, 10.0) is early
        assert early.fired
        assert first_due(queue, 19.999) is None
        assert not late.fired
        assert first_due(queue, 20.0) is late
        assert first_due(queue) is None
        assert len(queue) == 0

    def test_pop_due_drops_cancelled_heads_past_the_deadline(self):
        sim = Simulator()
        queue = sim.queue
        events = [sim.schedule_at(float(t), _noop) for t in range(1, 6)]
        for event in events[:3]:
            event.cancel()
        assert queue._cancelled == 3
        # Nothing live is due by t=3, but the cancelled heads go anyway.
        assert first_due(queue, 3.0) is None
        assert queue._cancelled == 0
        assert len(queue._heap) == 2
        assert first_due(queue, 4.0) is events[3]

    def test_same_time_events_pop_in_seq_order(self):
        sim = Simulator(start_ms=2.0)
        events = [sim.schedule_at(7.0, _noop) for _ in range(4)]
        sim.schedule_at(3.0, _noop)
        assert [event.seq for event in events] == [1, 2, 3, 4]
        popped = [event.seq for event in sim.queue.due(7.0)]
        assert popped == [5, 1, 2, 3, 4]

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                              st.booleans()), max_size=60),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_pop_due_matches_sorted_live_prefix(self, entries, deadline):
        sim = Simulator()
        live = []
        for time_ms, cancel in entries:
            event = sim.schedule_at(float(time_ms), _noop)
            if cancel:
                event.cancel()
            else:
                live.append(event)
        due = sorted((e for e in live if e.time_ms <= deadline),
                     key=lambda e: (e.time_ms, e.seq))
        assert list(sim.queue.due(float(deadline))) == due
        assert len(sim.queue) == len(live) - len(due)


class TestRunUntilTrue:
    def test_max_events_error_kept(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        before = PERF.events_run
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            sim.run_until_true(lambda: False, timeout_ms=1_000.0,
                               max_events=50)
        assert PERF.events_run - before == 50

    def test_max_events_reached_with_nothing_due_times_out(self):
        sim = Simulator()
        for delay in (1.0, 2.0):
            sim.schedule(delay, lambda: None)
        sim.schedule(500.0, lambda: None)
        assert not sim.run_until_true(lambda: False, timeout_ms=100.0,
                                      max_events=2)
        assert sim.now_ms == 100.0
        assert len(sim.queue) == 1

    def test_negative_timeout_error_kept(self):
        sim = Simulator(start_ms=10.0)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="negative timeout_ms"):
            sim.run_until_true(lambda: False, timeout_ms=-1.0)
        assert sim.now_ms == 10.0
        assert len(sim.queue) == 1

    def test_predicate_already_true_runs_nothing(self):
        sim = Simulator()
        event = sim.schedule(0.0, lambda: None)
        assert sim.run_until_true(lambda: True, timeout_ms=-1.0)
        assert not event.fired and len(sim.queue) == 1

    def test_clock_ends_on_deadline_with_later_events_queued(self):
        sim = Simulator(start_ms=5.0)
        fired = []
        sim.schedule(10.0, fired.append, "due")
        sim.schedule(10.0, fired.append, "also due")
        later = sim.schedule(96.0, fired.append, "late")
        assert not sim.run_until_true(lambda: False, timeout_ms=95.0)
        assert fired == ["due", "also due"]
        assert sim.now_ms == 100.0
        assert not later.fired
        assert len(sim.queue) == 1

    def test_clock_stops_on_the_event_that_satisfied_it(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, 1)
        sim.schedule(8.0, fired.append, 2)
        assert sim.run_until_true(lambda: bool(fired), timeout_ms=100.0)
        assert sim.now_ms == 3.0
        assert len(sim.queue) == 1


class TestStreamOrderingProperty:
    @given(st.lists(st.floats(min_value=0.0, max_value=200.0,
                              allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_in_order_delivery_under_random_delays(self, extra_delays):
        """Whatever per-message processing delays occur, a stream never
        reorders (TCP semantics)."""
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        net.ethernet(["a", "b"])
        received = []

        def acceptor(endpoint, payload):
            endpoint.on_message = lambda data, ep: received.append(data)

        net.node("b").listen("svc", acceptor)
        client = []
        StreamConnection.connect(net, "a", "b", "svc",
                                 on_established=client.append)
        sim.run_until_true(lambda: bool(client), timeout_ms=60_000.0)
        for index, extra in enumerate(extra_delays):
            client[0].send(index, nbytes=64, extra_delay_ms=extra)
        sim.run_for(1_000_000.0)
        assert received == list(range(len(extra_delays)))
