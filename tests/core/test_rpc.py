"""Unit tests for the request/reply layer (repro.core.rpc): reply
correlation, handler accounting, timeouts and cancellation."""

from repro import PPMClient, spinner_spec
from repro.core.messages import MsgKind

from .conftest import build_world, lpm_of


def _session(config=None):
    world = build_world(config=config)
    client = PPMClient(world, "lfc", "alpha").connect()
    gpid = client.create_process("anchor", host="beta",
                                 program=spinner_spec(None))
    return world, lpm_of(world, "alpha"), lpm_of(world, "beta"), gpid


def test_reply_correlation_and_handler_release():
    world, alpha, _beta, gpid = _session()
    busy_before = alpha.pool.busy_count()
    replies = []
    alpha.send_request("beta", MsgKind.CONTROL,
                       {"pid": gpid.pid, "action": "stop"},
                       replies.append)
    assert len(alpha.rpc.pending) == 1
    assert alpha.pool.busy_count() == busy_before + 1
    world.run_for(5_000.0)
    assert len(replies) == 1
    reply = replies[0]
    assert reply.kind is MsgKind.CONTROL_ACK
    assert reply.payload["ok"]
    # The conversation is closed and the handler returned to the pool.
    assert alpha.rpc.pending == {}
    assert alpha.pool.busy_count() == busy_before


def test_unroutable_destination_fails_synchronously():
    _world, alpha, _beta, _gpid = _session()
    replies = []
    alpha.send_request("nowhere", MsgKind.CONTROL, {},
                       replies.append)
    assert replies == [None]
    assert alpha.rpc.pending == {}


def test_timeout_fires_on_reply_none_and_releases_handler():
    world, alpha, _beta, gpid = _session()
    busy_before = alpha.pool.busy_count()
    # Partition the network after the link exists: the request leaves
    # the pending table only via its timeout.
    world.network.set_partition([{"alpha"}])
    replies = []
    alpha.send_request("beta", MsgKind.CONTROL,
                       {"pid": gpid.pid, "action": "stop"},
                       replies.append, timeout_ms=2_000.0)
    world.run_for(10_000.0)
    world.network.heal_partition()
    assert replies == [None]
    assert alpha.rpc.pending == {}
    assert alpha.pool.busy_count() == busy_before


def test_cancel_all_clears_pending():
    world, alpha, _beta, gpid = _session()
    alpha.send_request("beta", MsgKind.CONTROL,
                       {"pid": gpid.pid, "action": "stop"},
                       lambda reply: None)
    assert alpha.rpc.pending
    alpha.rpc.cancel_all()
    assert alpha.rpc.pending == {}
    world.run_for(60_000.0)  # cancelled timers must never fire
