"""Ablation A1: virtual circuits versus datagrams.

Section 3: "Virtual circuits, however, limit extensibility.  A datagram
based scheme would scale much better, but would require individual
authentication for each message."

This ablation quantifies both halves of that sentence at the transport
layer: for a growing session (N hosts, full-mesh conversations of M
messages per pair) it compares (a) connection state held open and setup
cost paid by circuits, against (b) the per-message authentication
charged by datagrams.
"""

import pytest

from repro.bench.tables import write_result
from repro.netsim import (
    DEFAULT_COST_MODEL,
    DatagramTransport,
    HostClass,
    Network,
    Simulator,
    StreamConnection,
)
from repro.util import format_table

MESSAGES_PER_PAIR = 4


def build_network(n_hosts):
    sim = Simulator(seed=5)
    net = Network(sim)
    names = ["h%02d" % i for i in range(n_hosts)]
    for name in names:
        net.add_node(name, HostClass.VAX_780)
    net.ethernet(names)
    return sim, net, names


def run_circuits(n_hosts):
    """Every pair opens an authenticated circuit and exchanges M
    messages; returns (elapsed_ms, open_connections)."""
    sim, net, names = build_network(n_hosts)
    delivered = [0]
    expected = 0

    def acceptor(endpoint, payload):
        endpoint.on_message = lambda p, ep: delivered.__setitem__(
            0, delivered[0] + 1)

    for name in names:
        net.node(name).listen("svc", acceptor)
    endpoints = []

    for i, a in enumerate(names):
        for b in names[i + 1:]:
            StreamConnection.connect(
                net, a, b, "svc",
                setup_ms=DEFAULT_COST_MODEL.connect_ms,
                on_established=endpoints.append)
    pair_count = n_hosts * (n_hosts - 1) // 2
    sim.run_until_true(lambda: len(endpoints) == pair_count,
                       timeout_ms=600_000.0)
    for endpoint in endpoints:
        for _ in range(MESSAGES_PER_PAIR):
            endpoint.send("m", nbytes=112)
            expected += 1
    sim.run_until_true(lambda: delivered[0] == expected,
                       timeout_ms=600_000.0)
    return sim.now_ms, net.open_connection_count()


def run_datagrams(n_hosts):
    """Same conversations over datagrams: no state, per-message auth."""
    sim, net, names = build_network(n_hosts)
    dgram = DatagramTransport(net)
    delivered = [0]
    expected = 0
    for name in names:
        dgram.bind(name, "svc",
                   lambda p, src: delivered.__setitem__(0, delivered[0] + 1))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for _ in range(MESSAGES_PER_PAIR):
                dgram.send(a, b, "svc", "m", nbytes=112)
                expected += 1
    sim.run_until_true(lambda: delivered[0] == expected,
                       timeout_ms=600_000.0)
    return sim.now_ms, net.open_connection_count()


def run_ablation():
    rows = []
    for n_hosts in (4, 8, 16, 32):
        circuit_ms, circuit_conns = run_circuits(n_hosts)
        dgram_ms, dgram_conns = run_datagrams(n_hosts)
        rows.append({"n_hosts": n_hosts,
                     "circuit_ms": circuit_ms,
                     "circuit_conns": circuit_conns,
                     "dgram_ms": dgram_ms,
                     "dgram_conns": dgram_conns})
    return rows


def measure_auth_gap():
    """One message on an established circuit and one datagram, sent at
    the same instant between the same two hosts; returns each one's
    send-to-delivery time in ms, (circuit, datagram)."""
    sim, net, (src, dst) = build_network(2)
    arrived = {}

    def acceptor(endpoint, payload):
        endpoint.on_message = lambda p, ep: arrived.setdefault(
            "circuit", sim.now_ms)

    net.node(dst).listen("svc", acceptor)
    endpoints = []
    StreamConnection.connect(net, src, dst, "svc",
                             setup_ms=DEFAULT_COST_MODEL.connect_ms,
                             on_established=endpoints.append)
    sim.run_until_true(lambda: bool(endpoints), timeout_ms=600_000.0)
    dgram = DatagramTransport(net)
    dgram.bind(dst, "svc",
               lambda p, sender: arrived.setdefault("datagram", sim.now_ms))
    sent_ms = sim.now_ms
    endpoints[0].send("m", nbytes=112)
    dgram.send(src, dst, "svc", "m", nbytes=112)
    sim.run_until_true(lambda: len(arrived) == 2, timeout_ms=600_000.0)
    return arrived["circuit"] - sent_ms, arrived["datagram"] - sent_ms


def test_ablation_circuits_vs_datagrams(benchmark, publish):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    table = format_table(
        ["hosts", "circuits: setup+xfer (ms)", "open circuits",
         "datagrams: xfer (ms)", "datagram state"],
        [[r["n_hosts"], "%.0f" % r["circuit_ms"], r["circuit_conns"],
          "%.0f" % r["dgram_ms"], r["dgram_conns"]] for r in rows],
        title="A1: virtual circuits vs datagrams "
              "(%d messages per host pair)" % MESSAGES_PER_PAIR)
    write_result("ablation_transport.txt", table)
    publish(table)

    # Circuits hold O(N^2) kernel state; datagrams hold none.
    last = rows[-1]
    assert last["circuit_conns"] == last["n_hosts"] * (
        last["n_hosts"] - 1) // 2
    assert all(r["dgram_conns"] == 0 for r in rows)
    # Connection state grows quadratically while datagram state stays
    # flat — the "datagrams scale much better" half of the claim...
    assert rows[-1]["circuit_conns"] > 30 * rows[0]["circuit_conns"] / 5
    # ...while per-message authentication is datagrams' recurring price:
    # a datagram arrives later than a message on an already
    # authenticated circuit, by exactly the authentication charge.
    circuit_ms, datagram_ms = measure_auth_gap()
    assert datagram_ms - circuit_ms == pytest.approx(
        DEFAULT_COST_MODEL.datagram_auth_ms)
