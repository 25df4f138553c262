"""Direct tests and properties for the event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netsim.events import Event, EventQueue
from repro.netsim import Network, Simulator, StreamConnection


class TestEventQueue:
    def test_pop_order(self):
        queue = EventQueue()
        for seq, time_ms in enumerate([30.0, 10.0, 20.0]):
            queue.push(Event(time_ms, seq, lambda: None, ()))
        times = [queue.pop().time_ms for _ in range(3)]
        assert times == [10.0, 20.0, 30.0]
        assert queue.pop() is None

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        keep = Event(10.0, 1, lambda: None, ())
        drop = Event(5.0, 2, lambda: None, ())
        queue.push(keep)
        queue.push(drop)
        drop.cancel()
        assert queue.peek_time() == 10.0
        assert queue.pop() is keep
        assert len(queue) == 0

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        event = Event(1.0, 1, lambda: None, ())
        queue.push(event)
        assert queue
        assert len(queue) == 1

    def test_event_repr_states(self):
        event = Event(1.5, 3, lambda: None, ())
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False),
                              st.booleans()),
                    max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_pop_always_nondecreasing(self, entries):
        queue = EventQueue()
        for seq, (time_ms, cancel) in enumerate(entries):
            event = Event(time_ms, seq, lambda: None, ())
            queue.push(event)
            if cancel:
                event.cancel()
        previous = -1.0
        while True:
            event = queue.pop()
            if event is None:
                break
            assert event.time_ms >= previous
            assert not event.cancelled
            previous = event.time_ms


    def test_pop_due_honours_its_deadline(self):
        queue = EventQueue()
        early = Event(10.0, 1, lambda: None, ())
        late = Event(20.0, 2, lambda: None, ())
        queue.push(late)
        queue.push(early)
        assert queue.pop_due(5.0) is None
        assert len(queue) == 2
        assert queue.pop_due(10.0) is early
        assert early.fired
        assert queue.pop_due(19.999) is None
        assert not late.fired
        assert queue.pop_due(20.0) is late
        assert queue.pop_due(float("inf")) is None
        assert len(queue) == 0

    def test_pop_due_drops_cancelled_heads_past_the_deadline(self):
        queue = EventQueue()
        events = [Event(float(t), t, lambda: None, ()) for t in range(1, 6)]
        for event in events:
            queue.push(event)
        for event in events[:3]:
            event.cancel()
        assert queue._cancelled == 3
        # Nothing live is due by t=3, but the cancelled heads go anyway.
        assert queue.pop_due(3.0) is None
        assert queue._cancelled == 0
        assert len(queue._heap) == 2
        assert queue.pop_due(4.0) is events[3]

    def test_same_time_events_pop_in_seq_order(self):
        queue = EventQueue()
        events = [Event(7.0, seq, lambda: None, ()) for seq in (5, 2, 9, 1)]
        for event in events:
            queue.push(event)
        popped = [queue.pop_due(7.0).seq for _ in events]
        assert popped == [1, 2, 5, 9]

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                              st.booleans()), max_size=60),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_pop_due_matches_sorted_live_prefix(self, entries, deadline):
        queue = EventQueue()
        live = []
        for seq, (time_ms, cancel) in enumerate(entries):
            event = Event(float(time_ms), seq, lambda: None, ())
            queue.push(event)
            if cancel:
                event.cancel()
            else:
                live.append(event)
        due = sorted((e for e in live if e.time_ms <= deadline),
                     key=lambda e: (e.time_ms, e.seq))
        popped = []
        while True:
            event = queue.pop_due(float(deadline))
            if event is None:
                break
            popped.append(event)
        assert popped == due
        assert len(queue) == len(live) - len(due)


class TestRunUntilTrue:
    def test_max_events_error_kept(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            sim.run_until_true(lambda: False, timeout_ms=1_000.0,
                               max_events=50)
        assert sim.events_run == 50

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
        sim.schedule(0.0, lambda: None)
        assert sim.run_until_true(lambda: True, timeout_ms=-1.0)
        assert sim.events_run == 0

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
