"""Unit-level tests for the datagram transport internals."""

import pytest

from repro import PPMClient, PPMConfig, spinner_spec
from repro.core.dgram import KEEPALIVE_MS
from repro.errors import ConnectionClosedError

from .conftest import build_world, lpm_of

DGRAM = PPMConfig(transport="datagram", datagram_rto_ms=200.0,
                  datagram_max_retries=3)


@pytest.fixture
def pair():
    world = build_world(config=DGRAM)
    client = PPMClient(world, "lfc", "alpha").connect()
    client.create_process("anchor", host="beta",
                          program=spinner_spec(None))
    return world, lpm_of(world, "alpha"), lpm_of(world, "beta")


def test_seen_window_suppresses_redelivery(pair):
    world, alpha, beta = pair
    endpoint_b = beta.dgram.endpoint_for("alpha")
    delivered = []
    saved = endpoint_b.on_message
    endpoint_b.on_message = lambda payload, ep: delivered.append(payload)
    datagram = {"kind": "data", "seq": 777, "from_host": "alpha",
                "user": "lfc", "payload": "hello"}
    from repro.core.dgram import _sign
    datagram["sig"] = _sign(beta.secret, "alpha", 777)
    endpoint_b.deliver(datagram)
    endpoint_b.deliver(datagram)  # a retransmission
    assert delivered == ["hello"]
    endpoint_b.on_message = saved


def test_retry_exhaustion_closes_endpoint(pair):
    world, alpha, beta = pair
    endpoint = alpha.dgram.endpoint_for("beta")
    closes = []
    saved = endpoint.on_close
    endpoint.on_close = lambda reason, ep: closes.append(reason)
    # Silence the network so nothing is ever acked.
    world.network.set_partition([{"alpha"}])
    endpoint.send("doomed", nbytes=64)
    # Linear backoff: 200 + 400 + 600 then failure.
    world.run_for(5_000.0)
    assert closes == ["datagram timeout"]
    assert not endpoint.open
    endpoint.on_close = saved
    world.network.heal_partition()


def test_send_on_closed_endpoint_raises(pair):
    world, alpha, beta = pair
    endpoint = alpha.dgram.endpoint_for("beta")
    endpoint.close()
    with pytest.raises(ConnectionClosedError):
        endpoint.send("late")


def test_close_cancels_retransmission_timers(pair):
    world, alpha, beta = pair
    endpoint = alpha.dgram.endpoint_for("beta")
    world.network.set_partition([{"alpha"}])
    endpoint.send("pending", nbytes=64)
    assert endpoint._unacked
    endpoint.close()
    assert not endpoint._unacked
    world.run_for(10_000.0)  # no timer fires on a corpse
    world.network.heal_partition()


def test_keepalive_skips_busy_endpoints(pair):
    world, alpha, beta = pair
    endpoint = alpha.dgram.endpoint_for("beta")
    world.network.set_partition([{"alpha"}])
    endpoint.send("inflight", nbytes=64)
    pings_before = alpha.dgram.pings_sent
    # While a message is unacked, the keepalive tick must not pile on.
    alpha.dgram._keepalive_tick()
    assert alpha.dgram.pings_sent == pings_before
    world.network.heal_partition()
    world.run_for(10_000.0)


def test_unintroduced_data_rejected(pair):
    world, alpha, beta = pair
    from repro.core.dgram import _sign
    rejected_before = beta.dgram.rejected
    world.datagrams.send(
        "gamma", "beta", "lpmdg:lfc",
        {"kind": "data", "seq": 1, "from_host": "gamma", "user": "lfc",
         "sig": _sign(beta.secret, "gamma", 1), "payload": "sneaky"})
    world.run_for(1_000.0)
    assert beta.dgram.rejected == rejected_before + 1


def test_keepalive_offsets_are_deterministic_and_bounded(pair):
    world, alpha, beta = pair
    offset = alpha.dgram._keepalive_offset_ms("beta")
    assert 0.0 <= offset < KEEPALIVE_MS
    # Pure function of stable session identifiers: stable across calls.
    assert alpha.dgram._keepalive_offset_ms("beta") == offset
    # The two directions of one link hash differently (different
    # name/peer order), so their pings do not burst together.
    assert beta.dgram._keepalive_offset_ms("alpha") != offset


def test_keepalive_offsets_spread_across_peers(pair):
    world, alpha, beta = pair
    offsets = {alpha.dgram._keepalive_offset_ms("h%02d" % i)
               for i in range(16)}
    assert len(offsets) == 16  # distinct per endpoint


def test_jittered_keepalive_still_pings_idle_links(pair):
    world, alpha, beta = pair
    before = alpha.dgram.pings_sent
    # One full keepalive period plus the worst-case jitter window.
    world.run_for(2 * KEEPALIVE_MS)
    assert alpha.dgram.pings_sent > before
