"""Direct tests and properties for the event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
