"""Unit tests for the sibling transport layer (repro.core.transport):
link lifecycle, channel authentication, duplicate accepts, and
teardown."""

from repro import PPMClient, spinner_spec
from repro.core.messages import MsgKind
from repro.core.transport import SiblingLink

from .conftest import build_world, lpm_of


class FakeEndpoint:
    """Just enough endpoint surface for SiblingTransport."""

    def __init__(self, peer_name="zed"):
        self.peer_name = peer_name
        self.open = True
        self.sent = []
        self.on_message = None
        self.on_close = None
        self.context = None

    def send(self, message, nbytes=0, extra_delay_ms=0.0):
        self.sent.append(message)

    def close(self):
        self.open = False


def _session():
    world = build_world()
    client = PPMClient(world, "lfc", "alpha").connect()
    client.create_process("anchor", host="beta",
                         program=spinner_spec(None))
    return world, lpm_of(world, "alpha"), lpm_of(world, "beta")


def test_session_link_lifecycle():
    _world, alpha, beta = _session()
    assert alpha.transport.authenticated() == ["beta"]
    link = alpha.transport.link_to("beta")
    assert isinstance(link, SiblingLink) and link.authenticated
    assert alpha.transport.link_to("gamma") is None
    assert alpha.transport.session_established
    assert beta.transport.session_established
    # The newcomer adopted the established side's session secret.
    assert alpha.secret == beta.secret


def test_accept_rejects_bad_token():
    _world, alpha, _beta = _session()
    endpoint = FakeEndpoint("mallory")
    alpha.transport.accept_sibling(endpoint, {
        "token": "forged", "user": "lfc", "from_host": "mallory"})
    assert not endpoint.open
    assert "mallory" not in alpha.transport.links


def test_accept_rejects_wrong_user():
    _world, alpha, _beta = _session()
    endpoint = FakeEndpoint("mallory")
    alpha.transport.accept_sibling(endpoint, {
        "token": alpha.token, "user": "ramon", "from_host": "mallory"})
    assert not endpoint.open
    assert "mallory" not in alpha.transport.links


def test_duplicate_accept_replaces_link():
    _world, alpha, _beta = _session()
    old = alpha.transport.links["beta"].endpoint
    endpoint = FakeEndpoint("beta")
    alpha.transport.accept_sibling(endpoint, {
        "token": alpha.token, "user": "lfc", "from_host": "beta",
        "secret": alpha.secret, "ccs_host": alpha.ccs_host})
    assert not old.open  # the stale channel was torn down
    link = alpha.transport.links["beta"]
    assert link.endpoint is endpoint and link.authenticated
    # The new channel was answered with the session HELLO_ACK.
    ack = endpoint.sent[0]
    assert ack.kind is MsgKind.HELLO_ACK
    assert ack.payload["secret"] == alpha.secret
    assert ack.payload["ccs_host"] == alpha.ccs_host


def test_link_close_removes_link_and_drops_routes():
    _world, alpha, _beta = _session()
    alpha.routes.learn(["alpha", "beta", "gamma"])
    link = alpha.transport.links["beta"]
    alpha.transport.on_link_close("closed", link.endpoint)
    assert "beta" not in alpha.transport.links
    assert alpha.transport.authenticated() == []
    # Routes through the lost peer are invalidated with the link.
    assert alpha.routes.route_to("gamma") is None


def test_ensure_sibling_resolves_existing_link_immediately():
    _world, alpha, _beta = _session()
    results = []
    alpha.transport.ensure_sibling("beta").then(results.append)
    assert results == [alpha.transport.links["beta"]]
    # Asking for ourselves is a no-op link.
    alpha.transport.ensure_sibling("alpha").then(results.append)
    assert results[1] is None


def test_ensure_sibling_deduplicates_inflight_bootstraps():
    world = build_world()
    PPMClient(world, "lfc", "alpha").connect()
    alpha = lpm_of(world, "alpha")
    first = alpha.transport.ensure_sibling("beta")
    second = alpha.transport.ensure_sibling("beta")
    assert first is second  # one inetd/pmd bootstrap, shared waiter
    done = []
    first.then(done.append)
    world.run_for(10_000.0)
    assert done and done[0] is not None and done[0].peer == "beta"
    assert alpha.transport.authenticated() == ["beta"]
    assert "beta" not in alpha.transport._pending_links


def test_ensure_sibling_fails_when_channel_refused_before_ack():
    world = build_world()
    PPMClient(world, "lfc", "alpha").connect()
    alpha = lpm_of(world, "alpha")
    transport = alpha.transport
    open_channel = transport._open_channel
    # Present a token beta's pmd never issued: beta refuses the
    # channel before any HELLO_ACK, and the waiter must still resolve.
    transport._open_channel = lambda peer, bootstrap, done: open_channel(
        peer, dict(bootstrap, token="forged"), done)
    results = []
    transport.ensure_sibling("beta").then(results.append)
    world.run_for(10_000.0)
    assert results == [None]
    assert transport.authenticated() == []
    assert "beta" not in transport._pending_links


def test_shutdown_closes_links():
    _world, alpha, _beta = _session()
    endpoint = alpha.transport.links["beta"].endpoint
    alpha.shutdown("test teardown")
    assert alpha.transport.links == {}
    assert not endpoint.open
