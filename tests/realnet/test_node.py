"""In-process realnet tests: one fabric dialling its own listener.

Everything here runs on a single asyncio loop — the node and the
client share the fabric, and ``run_until_true`` pumps both sides, so
the tests exercise real sockets without spawning processes.
"""

import asyncio
import socket

import pytest

from repro.realnet.fabric import AsyncioFabric
from repro.realnet.framing import encode_frame
from repro.realnet.lpm import RealLpm
from repro.realnet.node import READ_BYTES, RealNode
from repro.realnet.pmd import RealPmd
from repro.realnet.registry import HostRegistry
from repro.unixsim.inetd import INETD_SERVICE, PPM_SERVICE


def test_port_zero_discovery_and_publication(fabric, node):
    """Binding port 0 discovers the kernel's choice and publishes it."""
    assert node.port is not None and node.port > 0
    assert fabric.registry.lookup("alpha") == ("127.0.0.1", node.port)


def test_connect_delivers_messages_both_ways(fabric, node):
    server_log, client_log = [], []

    def acceptor(endpoint, payload):
        server_log.append(payload)
        endpoint.on_message = \
            lambda frame, ep: (server_log.append(frame),
                               ep.send({"echo": frame}))
        endpoint.send({"greeting": "hi"})

    node.listen("echo", acceptor)
    holder = {}

    def established(endpoint):
        # Handlers install inside on_established — the contract's
        # guarantee that no frame can slip past them.
        endpoint.on_message = lambda frame, ep: client_log.append(frame)
        holder["ep"] = endpoint

    fabric.connect("tester", "alpha", "echo", payload={"n": 1},
                   on_established=established)
    assert fabric.run_until_true(lambda: "ep" in holder,
                                 timeout_ms=5_000)
    holder["ep"].send({"ping": True})
    assert fabric.run_until_true(
        lambda: len(client_log) >= 2 and len(server_log) >= 2,
        timeout_ms=5_000)
    assert server_log[0] == {"n": 1}
    assert server_log[1] == {"ping": True}
    assert client_log[0] == {"greeting": "hi"}
    assert client_log[1] == {"echo": {"ping": True}}


def test_unknown_service_is_refused(fabric, node):
    failures = []
    fabric.connect("tester", "alpha", "nope",
                   on_established=lambda ep: failures.append("bad"),
                   on_failed=lambda reason: failures.append(reason))
    assert fabric.run_until_true(lambda: bool(failures),
                                 timeout_ms=5_000)
    assert "no such service" in failures[0]


def test_unknown_host_fails_fast(fabric):
    failures = []
    fabric.connect("tester", "ghost", "echo",
                   on_failed=lambda reason: failures.append(reason))
    assert fabric.run_until_true(lambda: bool(failures),
                                 timeout_ms=5_000)
    assert "not in registry" in failures[0]


def test_peer_sees_close_initiator_does_not(fabric, node):
    """netsim close semantics over real sockets: the peer's on_close
    fires via EOF; the initiator's own handler does not."""
    server_side, events = {}, []

    def acceptor(endpoint, payload):
        server_side["ep"] = endpoint
        endpoint.on_close = lambda reason, ep: events.append(
            ("server", reason))

    node.listen("quiet", acceptor)
    holder = {}
    fabric.connect("tester", "alpha", "quiet",
                   on_established=lambda ep: holder.update(ep=ep))
    assert fabric.run_until_true(lambda: "ep" in holder and
                                 "ep" in server_side, timeout_ms=5_000)
    client_ep = holder["ep"]
    client_ep.on_close = lambda reason, ep: events.append(
        ("client", reason))
    client_ep.close()
    assert fabric.run_until_true(
        lambda: ("server", "closed") in events, timeout_ms=5_000)
    assert ("client", "closed") not in events
    assert not client_ep.open


def test_lpm_shutdown_unlistens_accept_service(fabric, node):
    """The orphaned-listener bug: after an LPM shuts down, dialling its
    old accept service must be refused, not half-served."""
    pmd = RealPmd(fabric, node)
    replies = []

    def on_bootstrap(payload, endpoint):
        replies.append(payload)
        endpoint.close()

    fabric.connect(
        "tester", "alpha", INETD_SERVICE,
        payload={"service": PPM_SERVICE, "user": "lfc",
                 "origin_host": "alpha", "origin_user": "lfc"},
        on_established=lambda ep: setattr(ep, "on_message",
                                          on_bootstrap))
    assert fabric.run_until_true(lambda: bool(replies),
                                 timeout_ms=5_000)
    accept_service = replies[0]["accept_service"]
    assert accept_service in node.services

    lpm = pmd.lpms["lfc"]
    lpm.shutdown()
    assert accept_service not in node.services
    failures = []
    fabric.connect("tester", "alpha", accept_service,
                   payload={"role": "tool"},
                   on_established=lambda ep: failures.append("bad"),
                   on_failed=lambda reason: failures.append(reason))
    assert fabric.run_until_true(lambda: bool(failures),
                                 timeout_ms=5_000)
    assert "no such service" in failures[0]
    pmd.shutdown()


def test_sibling_refused_before_ack_fails_ensure_sibling(fabric, node):
    """A sibling channel the acceptor refuses (a token its pmd never
    issued) must resolve ``ensure_sibling`` to None, not hang."""
    pmd = RealPmd(fabric, node)
    beta = RealNode(fabric, "beta", fabric.registry)
    beta.start()
    lpm = RealLpm(fabric, beta, "lfc", token="0" * 32)
    open_channel = lpm._open_sibling_channel
    lpm._open_sibling_channel = lambda peer, bootstrap, done: open_channel(
        peer, dict(bootstrap, token="forged"), done)
    results = []
    lpm.ensure_sibling("alpha").then(results.append)
    assert fabric.run_until_true(lambda: bool(results), timeout_ms=5_000)
    assert results == [None]
    assert "alpha" not in lpm.siblings
    lpm.shutdown()
    beta.close()
    pmd.shutdown()


def test_node_close_withdraws_registry_entry(fabric):
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    assert fabric.registry.lookup("alpha") is not None
    node.close()
    assert fabric.registry.lookup("alpha") is None


def test_node_forgets_endpoints_as_they_close(fabric, node):
    """A serve process lives for days: what it keeps per connection
    must go when the connection goes, whichever side closed it."""
    server_side, gone = [], []

    def acceptor(endpoint, payload):
        server_side.append(endpoint)
        endpoint.on_close = lambda reason, ep: gone.append(ep)

    node.listen("quiet", acceptor)
    rounds = 300
    for _ in range(rounds):
        holder = {}
        fabric.connect("tester", "alpha", "quiet",
                       on_established=lambda ep: holder.update(ep=ep))
        assert fabric.run_until_true(lambda: "ep" in holder,
                                     timeout_ms=5_000)
        holder["ep"].close()
        # Half the time the node closes first; otherwise its client
        # has vanished and it learns that from EOF.
        if len(server_side) % 2:
            server_side[-1].close()
        assert len(node._accepted) <= 4
    assert fabric.run_until_true(
        lambda: len(gone) == rounds - rounds // 2, timeout_ms=5_000)
    assert len(node._accepted) == 0
    assert not any(endpoint.open for endpoint in server_side)


def test_node_close_closes_what_is_still_open(fabric):
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    server_side = []
    node.listen("quiet", lambda ep, payload: server_side.append(ep))
    client_side = []
    fabric.connect("tester", "alpha", "quiet",
                   on_established=client_side.append)
    assert fabric.run_until_true(
        lambda: bool(server_side) and bool(client_side), timeout_ms=5_000)
    assert len(node._accepted) == 1
    node.close()
    assert not server_side[0].open and not node._accepted
    client_side[0].close()


def test_no_socket_outlives_the_node_and_the_fabric(loopback, tmp_path):
    """Every transport, dialled or accepted, has released its socket
    once the node and then the fabric have closed: one whose peer
    closed first but whose EOF was never read, and one nobody closed."""
    fabric = AsyncioFabric(HostRegistry(str(tmp_path / "reg.json")),
                           local_host="alpha")
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    server_side, client_side = [], []
    node.listen("quiet", lambda ep, payload: server_side.append(ep))
    for _ in range(2):
        fabric.connect("tester", "alpha", "quiet",
                       on_established=client_side.append)
    assert fabric.run_until_true(
        lambda: len(server_side) == len(client_side) == 2,
        timeout_ms=5_000)
    client_side[0].close()
    node.close()
    fabric.close()
    assert not fabric.endpoints
    for endpoint in server_side + client_side:
        assert endpoint.transport.get_extra_info("socket").fileno() == -1


def test_both_ends_read_in_capped_chunks(fabric, node):
    """Neither side lets asyncio allocate its 256 KiB ``recv()`` buffer
    per read (``cap_socket_reads``), and a frame several reads long
    still arrives whole."""
    server_side, echoed = [], []

    def acceptor(endpoint, payload):
        server_side.append(endpoint)
        endpoint.on_message = lambda frame, ep: ep.send(frame)

    node.listen("echo", acceptor)
    holder = {}

    def established(endpoint):
        endpoint.on_message = lambda frame, ep: echoed.append(frame)
        holder["ep"] = endpoint

    fabric.connect("tester", "alpha", "echo", on_established=established)
    assert fabric.run_until_true(lambda: "ep" in holder, timeout_ms=5_000)
    for endpoint in (holder["ep"], server_side[0]):
        assert endpoint.transport.max_size == READ_BYTES
    big = {"blob": "x" * (5 * READ_BYTES)}
    holder["ep"].send(big)
    assert fabric.run_until_true(lambda: bool(echoed), timeout_ms=5_000)
    assert echoed == [big]
    holder["ep"].close()


#: Frame bodies that do not decode, one per way ``decode_body`` fails:
#: not JSON, not UTF-8, a message missing a field, an unknown kind.
BAD_BODIES = {
    "not-json": b"M{not json",
    "not-utf8": b"J\xff\xfe",
    "missing-field": b'M{"kind":"tool_ping"}',
    "unknown-kind": b'M{"kind":"no_such_kind","req_id":1,"origin":"a",'
                    b'"user":"u","payload":{},"route":[],"reply_to":null,'
                    b'"broadcast":null,"final_dest":null}',
}


def _raw_frame(tagged_body: bytes) -> bytes:
    return (len(tagged_body) - 1).to_bytes(4, "big") + tagged_body


@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_undecodable_frame_closes_the_endpoint(fabric, node, case):
    """A frame whose body does not decode is a protocol error: the
    endpoint closes and its ``on_close`` says so."""
    server_side, closed = [], []

    def acceptor(endpoint, payload):
        server_side.append(endpoint)
        endpoint.on_message = lambda frame, ep: None
        endpoint.on_close = lambda reason, ep: closed.append(reason)

    node.listen("quiet", acceptor)
    with socket.create_connection(("127.0.0.1", node.port)) as raw:
        raw.sendall(encode_frame({"connect": "quiet", "src": "raw"}))
        assert fabric.run_until_true(lambda: bool(server_side),
                                     timeout_ms=5_000)
        raw.sendall(_raw_frame(BAD_BODIES[case]))
        assert fabric.run_until_true(lambda: bool(closed),
                                     timeout_ms=5_000)
    assert closed == ["protocol error"]
    assert not server_side[0].open
    assert not node._accepted


@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_undecodable_answer_fails_the_dial(fabric, case):
    """A dial whose answer does not decode fires ``on_failed`` with a
    reason (and not ``on_established``) instead of neither."""
    garblers = []

    class Garbler(asyncio.Protocol):
        def connection_made(self, transport):
            garblers.append(transport)
            transport.write(_raw_frame(BAD_BODIES[case]))

    server = fabric.loop.run_until_complete(
        fabric.loop.create_server(Garbler, "127.0.0.1", 0))
    fabric.registry.publish("garbler", "127.0.0.1",
                            server.sockets[0].getsockname()[1])
    outcomes = []
    fabric.connect("tester", "garbler", "echo",
                   on_established=lambda ep: outcomes.append("established"),
                   on_failed=outcomes.append)
    assert fabric.run_until_true(lambda: bool(outcomes), timeout_ms=5_000)
    for transport in garblers:
        transport.close()
    server.close()
    fabric.loop.run_until_complete(server.wait_closed())
    assert outcomes == ["protocol error during handshake"]
