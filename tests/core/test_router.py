"""Unit tests for the routing layer (repro.core.router): ack-kind
mapping, hop-by-hop forwarding with failure reporting, reply routing,
and route learning/invalidation."""

from repro import PPMClient, spinner_spec
from repro.core.messages import Message, MsgKind
from repro.core.router import ack_kind_for
from repro.perf import PERF

from .conftest import build_world, lpm_of


def test_ack_kind_mapping():
    assert ack_kind_for(MsgKind.CONTROL) is MsgKind.CONTROL_ACK
    assert ack_kind_for(MsgKind.CREATE) is MsgKind.CREATE_ACK
    assert ack_kind_for(MsgKind.GATHER) is MsgKind.GATHER_REPLY
    assert ack_kind_for(MsgKind.LOCATE) is MsgKind.LOCATE_ACK
    assert ack_kind_for(MsgKind.CCS_REPORT) is MsgKind.CCS_ACK
    assert ack_kind_for(MsgKind.CCS_PROBE) is MsgKind.CCS_PROBE_ACK
    # Everything else is answered generically.
    assert ack_kind_for(MsgKind.HELLO) is MsgKind.TOOL_REPLY


def _chain():
    """alpha-beta overlay; beta has no link onward to gamma."""
    world = build_world()
    client = PPMClient(world, "lfc", "alpha").connect()
    client.create_process("anchor", host="beta",
                         program=spinner_spec(None))
    return world, lpm_of(world, "alpha"), lpm_of(world, "beta")


def test_forward_without_next_hop_reports_failure_to_origin():
    world, alpha, _beta = _chain()
    replies = []
    # alpha pushes a request along a stale 3-hop route; beta has no
    # gamma link, so the router must answer with a failure reply.
    alpha.send_request("gamma", MsgKind.CONTROL,
                       {"pid": 1, "action": "stop"}, replies.append,
                       route=["alpha", "beta", "gamma"])
    world.run_for(5_000.0)
    assert len(replies) == 1
    reply = replies[0]
    assert reply is not None and reply.kind is MsgKind.CONTROL_ACK
    assert not reply.payload["ok"]
    assert reply.payload["error"] == "no route at beta"


def test_outbound_route_prefers_direct_link():
    _world, alpha, _beta = _chain()
    alpha.router.cache.learn(["alpha", "delta", "beta"])
    # A live direct link beats any cached overlay route...
    assert alpha.router.outbound_route("beta") == ["alpha", "beta"]
    # ...and without a link the cached route is used.
    alpha.router.cache.learn(["alpha", "beta", "gamma"])
    assert alpha.router.outbound_route("gamma") == \
        ["alpha", "beta", "gamma"]
    assert alpha.router.outbound_route("epsilon") is None


def test_learn_from_reply_reverses_route():
    _world, alpha, _beta = _chain()
    reply = Message(kind=MsgKind.CONTROL_ACK, req_id=9, origin="gamma",
                    user="lfc", payload={"ok": True},
                    route=["gamma", "beta", "alpha"], final_dest="alpha",
                    reply_to=5)
    alpha.router.learn_from_reply(reply)
    assert alpha.router.cache.route_to("gamma") == ["alpha", "beta", "gamma"]
    # Two-element routes are direct links, never worth caching.
    direct = Message(kind=MsgKind.CONTROL_ACK, req_id=10, origin="beta",
                     user="lfc", payload={"ok": True},
                     route=["beta", "alpha"], final_dest="alpha",
                     reply_to=6)
    alpha.router.learn_from_reply(direct)
    assert alpha.router.cache.route_to("beta") is None


def test_learn_path_and_invalidate_via():
    _world, alpha, _beta = _chain()
    alpha.router.learn_path(["alpha", "beta", "gamma"])
    alpha.router.learn_path(["alpha", "beta", "delta"])
    alpha.router.learn_path(["alpha", "beta"])  # direct: not cached
    assert alpha.router.cache.route_to("gamma") == ["alpha", "beta", "gamma"]
    assert alpha.router.cache.route_to("beta") is None
    PERF.reset()
    alpha.router.invalidate_via("beta")
    assert alpha.router.cache.route_to("gamma") is None
    assert alpha.router.cache.route_to("delta") is None
    # The via-host index visits exactly the routes through the peer.
    assert PERF.route_invalidation_scans == 2


def test_route_send_follows_recorded_route():
    world, alpha, beta = _chain()
    received = []
    beta.rpc.register(41, received.append,
                      beta.fabric.schedule(60_000.0, lambda: None))
    reply = Message(kind=MsgKind.CONTROL_ACK, req_id=12, origin="alpha",
                    user="lfc", payload={"ok": True},
                    route=["alpha", "beta"], final_dest="beta",
                    reply_to=41)
    alpha.router.route_send(reply)
    world.run_for(5_000.0)
    assert len(received) == 1 and received[0].payload == {"ok": True}


def test_route_send_without_link_drops_silently():
    _world, alpha, _beta = _chain()
    reply = Message(kind=MsgKind.CONTROL_ACK, req_id=13, origin="alpha",
                    user="lfc", payload={"ok": True},
                    route=["alpha", "gamma"], final_dest="gamma",
                    reply_to=1)
    alpha.router.route_send(reply)  # no gamma link: must not raise
