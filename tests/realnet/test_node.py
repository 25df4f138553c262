"""In-process realnet tests: one fabric dialling its own listener.

Everything here runs on a single asyncio loop — the node and the
client share the fabric, and ``run_until_true`` pumps both sides, so
the tests exercise real sockets without spawning processes.
"""

from repro.realnet.node import READ_BYTES, RealNode
from repro.realnet.pmd import RealPmd
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
        assert endpoint.writer.transport.max_size == READ_BYTES
    big = {"blob": "x" * (5 * READ_BYTES)}
    holder["ep"].send(big)
    assert fabric.run_until_true(lambda: bool(echoed), timeout_ms=5_000)
    assert echoed == [big]
    holder["ep"].close()
