"""Tests for reliable stream connections."""

import pytest

from repro.errors import ConnectionClosedError
from repro.netsim import Network, Simulator, StreamConnection
from repro.perf import PERF


class Collector:
    """Records messages and close reasons for one endpoint."""

    def __init__(self):
        self.messages = []
        self.closes = []
        self.endpoint = None

    def attach(self, endpoint):
        self.endpoint = endpoint
        endpoint.on_message = lambda payload, ep: self.messages.append(payload)
        endpoint.on_close = lambda reason, ep: self.closes.append(reason)


def build(names=("a", "b", "c")):
    sim = Simulator()
    net = Network(sim)
    for name in names:
        net.add_node(name)
    net.ethernet(names)
    return sim, net


def open_pair(sim, net, src="a", dst="b", service="svc"):
    """Open a connection and return (client_collector, server_collector)."""
    client, server = Collector(), Collector()

    def acceptor(endpoint, payload):
        server.attach(endpoint)

    net.node(dst).listen(service, acceptor)
    StreamConnection.connect(net, src, dst, service,
                             on_established=client.attach)
    sim.run_until_true(lambda: client.endpoint is not None,
                       timeout_ms=10_000.0)
    assert client.endpoint is not None, "connection never established"
    return client, server


def test_connect_and_exchange_messages():
    sim, net = build()
    client, server = open_pair(sim, net)
    client.endpoint.send("hello", nbytes=64)
    server.endpoint.send("world", nbytes=64)
    sim.run_for(1_000.0)
    assert server.messages == ["hello"]
    assert client.messages == ["world"]


def test_connection_setup_takes_time():
    sim, net = build()
    established_at = []

    def acceptor(endpoint, payload):
        pass

    net.node("b").listen("svc", acceptor)
    StreamConnection.connect(
        net, "a", "b", "svc", setup_ms=100.0,
        on_established=lambda ep: established_at.append(sim.now_ms))
    sim.run_for(1_000.0)
    assert established_at and established_at[0] > 100.0


def test_messages_delivered_in_order():
    sim, net = build()
    client, server = open_pair(sim, net)
    # Later messages carry less extra delay; ordering must still hold.
    for i, extra in enumerate([50.0, 30.0, 10.0, 0.0]):
        client.endpoint.send(i, nbytes=32, extra_delay_ms=extra)
    sim.run_for(1_000.0)
    assert server.messages == [0, 1, 2, 3]


def test_connect_refused_without_service():
    sim, net = build()
    failures = []
    StreamConnection.connect(net, "a", "b", "missing",
                             on_failed=failures.append)
    sim.run_for(10_000.0)
    assert failures and "refused" in failures[0]


def test_connect_fails_when_unreachable():
    sim, net = build()
    net.crash_host("b")
    failures = []
    StreamConnection.connect(net, "a", "b", "svc",
                             on_failed=failures.append)
    sim.run_for(10_000.0)
    assert failures == ["unreachable"]


def test_payload_passed_to_acceptor():
    sim, net = build()
    received = []
    net.node("b").listen("svc",
                         lambda ep, payload: received.append(payload))
    StreamConnection.connect(net, "a", "b", "svc", payload={"user": "lfc"})
    sim.run_for(1_000.0)
    assert received == [{"user": "lfc"}]


def test_orderly_close_notifies_peer_only():
    sim, net = build()
    client, server = open_pair(sim, net)
    client.endpoint.close()
    sim.run_for(1_000.0)
    assert server.closes == ["closed"]
    assert client.closes == []  # the initiator asked; no callback
    assert not client.endpoint.open
    assert not server.endpoint.open


def test_send_after_close_raises():
    sim, net = build()
    client, server = open_pair(sim, net)
    client.endpoint.close()
    with pytest.raises(ConnectionClosedError):
        client.endpoint.send("late")


def test_crash_breaks_connection_after_detection_delay():
    sim, net = build()
    client, server = open_pair(sim, net)
    before = sim.now_ms
    net.crash_host("b")
    sim.run_for(10_000.0)
    assert client.closes == ["connection timed out"]
    # The crashed side hears nothing.
    assert server.closes == []
    assert net.stats.connections_broken == 1
    assert sim.now_ms > before


def test_partition_breaks_connection_and_heal_before_detection_saves_it():
    sim, net = build()
    client, server = open_pair(sim, net)
    net.set_partition([{"a"}, {"b", "c"}])
    # Heal before the detection delay (2000 ms) elapses.
    sim.run_for(100.0)
    net.heal_partition()
    sim.run_for(10_000.0)
    assert client.closes == []
    assert server.closes == []
    client.endpoint.send("still alive")
    sim.run_for(1_000.0)
    assert server.messages == ["still alive"]


def test_send_onto_dead_path_discovers_break_immediately():
    sim, net = build()
    client, server = open_pair(sim, net)
    net.set_partition([{"a"}, {"b", "c"}])
    with pytest.raises(ConnectionClosedError):
        client.endpoint.send("into the void")
    assert not client.endpoint.open


def test_messages_in_flight_lost_on_break():
    sim, net = build()
    client, server = open_pair(sim, net)
    client.endpoint.send("doomed", nbytes=64, extra_delay_ms=500.0)
    net.crash_host("b")
    sim.run_for(10_000.0)
    assert server.messages == []


def test_stats_count_messages_and_connections():
    sim, net = build()
    client, server = open_pair(sim, net)
    client.endpoint.send("x", nbytes=100)
    client.endpoint.send("y", nbytes=50)
    sim.run_for(1_000.0)
    assert net.stats.connections_opened == 1
    assert net.stats.stream_messages == 2
    assert net.stats.stream_bytes == 150
    assert net.open_connection_count() == 1
    client.endpoint.close()
    assert net.open_connection_count() == 0


# ----------------------------------------------------------------------
# One delivery event per segment
# ----------------------------------------------------------------------

def test_burst_arrives_in_order_at_per_segment_times():
    # A back-to-back burst must arrive in order at exactly the arrival
    # times the seed's one-event-per-segment scheduler produced:
    # max(now + wire + extra, floor), floor advancing to each arrival.
    sim, net = build()
    client, server = open_pair(sim, net)
    deliveries = []
    server.endpoint.on_message = (
        lambda payload, ep: deliveries.append((payload, sim.now_ms)))
    extras = [0.0, 0.0, 40.0, 0.0, 15.0]
    wire = net.transit_delay_ms("a", "b", 32)
    t0 = sim.now_ms
    expected, floor = [], 0.0
    for i, extra in enumerate(extras):
        arrival = max(t0 + wire + extra, floor)
        floor = arrival
        expected.append((i, arrival))
    for i, extra in enumerate(extras):
        client.endpoint.send(i, nbytes=32, extra_delay_ms=extra)
    sim.run_until(expected[-1][1])
    assert deliveries == expected


@pytest.mark.parametrize("ending", ["close", "break"])
def test_ending_mid_burst_cancels_each_inflight_segment(ending):
    sim, net = build()
    client, server = open_pair(sim, net)
    base = PERF.snapshot()
    # Four segments arrive at once; six more are held back far beyond
    # the 2 s detection delay.
    for i in range(10):
        client.endpoint.send(i, nbytes=32,
                             extra_delay_ms=0.0 if i < 4 else 5_000.0)
    assert PERF.delta_since(base)["events_scheduled"] == 10
    sim.run_until_true(lambda: len(server.messages) == 4,
                       timeout_ms=1_000.0)
    base = PERF.snapshot()
    if ending == "close":
        client.endpoint.close()
    else:
        # Detection fires (an event that runs, not one cancelled) and
        # breaks the circuit.
        net.set_partition([{"a"}, {"b", "c"}])
        sim.run_until_true(lambda: not client.endpoint.open,
                           timeout_ms=10_000.0)
    assert PERF.delta_since(base)["events_cancelled"] == 6
    assert len(sim.queue) == 0  # no event of the dead circuit remains
    assert server.messages == [0, 1, 2, 3]


def test_close_mid_burst_cancels_timer_and_drops_inflight():
    sim, net = build()
    client, server = open_pair(sim, net)
    for i in range(5):
        client.endpoint.send(i, nbytes=32)
    client.endpoint.close()
    assert len(sim.queue) == 0  # deliveries cancelled, not leaked
    sim.run_for(1_000.0)
    assert server.messages == []
    assert server.closes == ["closed"]


def test_break_mid_burst_cancels_timers_and_detection():
    sim, net = build()
    client, server = open_pair(sim, net)
    for i in range(5):
        client.endpoint.send(i, nbytes=32, extra_delay_ms=100.0)
    net.set_partition([{"a"}, {"b", "c"}])  # arms the detect-break timer
    with pytest.raises(ConnectionClosedError):
        client.endpoint.send("reset", nbytes=32)  # immediate break
    # The immediate break must cancel the deliveries AND the pending
    # detect-break timer, leaving no stale bookkeeping.
    conn = client.endpoint.conn
    assert not conn._break_scheduled
    assert conn._detect_timer is None
    assert len(sim.queue) == 0
    sim.run_for(1_000.0)
    assert server.messages == []


def test_rebroken_path_after_immediate_break_still_detects():
    # Regression for the stale-_break_scheduled bug: an immediate break
    # while a detect-break timer was pending must not leave state that
    # lets a later healed-then-rebroken circuit skip detection.
    sim, net = build()
    client, server = open_pair(sim, net)
    net.set_partition([{"a"}, {"b", "c"}])
    with pytest.raises(ConnectionClosedError):
        client.endpoint.send("reset")
    net.heal_partition()
    sim.run_for(5_000.0)
    # A fresh circuit over the healed path must get its own detection.
    client2, server2 = open_pair(sim, net)
    net.set_partition([{"a"}, {"b", "c"}])
    sim.run_for(10_000.0)
    assert client2.closes == ["connection timed out"]


def test_host_down_between_arm_and_fire_suppresses_delivery():
    sim, net = build()
    client, server = open_pair(sim, net)
    client.endpoint.send("lost", nbytes=32, extra_delay_ms=200.0)
    net.crash_host("b")  # down before the delivery event fires
    sim.run_for(500.0)   # past the arrival, before the detection delay
    assert server.messages == []
    assert net.stats.stream_deliveries_suppressed == 1
    net.revive_host("b")
    sim.run_for(5_000.0)
    assert client.closes == []  # healed before detection broke it
    client.endpoint.send("after revival", nbytes=32)
    sim.run_for(1_000.0)
    assert server.messages == ["after revival"]


def test_close_during_drain_stops_remaining_same_time_segments():
    sim, net = build()
    client, server = open_pair(sim, net)

    def close_after_first(payload, endpoint):
        server.messages.append(payload)
        endpoint.close()

    server.endpoint.on_message = close_after_first
    for i in range(4):
        client.endpoint.send(i, nbytes=32)  # one arrival group of four
    sim.run_for(1_000.0)
    # The close inside the first delivery cancels the rest: the
    # remaining same-instant segments are lost, never delivered.
    assert server.messages == [0]
    assert len(sim.queue) == 0


def test_multihop_connection_survives_alternate_path():
    # a-b-c chain plus a-c direct: killing b must not break an a-c circuit.
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "c"):
        net.add_node(name)
    net.add_link("a", "b")
    net.add_link("b", "c")
    net.add_link("a", "c")
    client, server = open_pair(sim, net, src="a", dst="c")
    net.crash_host("b")
    sim.run_for(10_000.0)
    assert client.closes == []
    client.endpoint.send("rerouted")
    sim.run_for(1_000.0)
    assert server.messages == ["rerouted"]
