"""Tests for multi-hop control: route learning, forwarding, and the
LOCATE broadcast fallback (section 4's quick-routing machinery)."""

import pytest

from repro import GlobalPid, PPMClient, PPMError, spinner_spec

from .conftest import lpm_of


def build_chain(world):
    """alpha-beta-gamma overlay chain; returns the gpid of a process on
    gamma that alpha knows only through the chain.

    alpha creates a process on beta; a tool on beta creates the gamma
    leg, so alpha never opens a direct alpha-gamma channel.
    """
    alpha_client = PPMClient(world, "lfc", "alpha").connect()
    mid = alpha_client.create_process("mid", host="beta",
                                      program=spinner_spec(None))
    beta_client = PPMClient(world, "lfc", "beta").connect()
    leaf = beta_client.create_process("leaf", host="gamma", parent=mid,
                                      program=spinner_spec(None))
    assert "gamma" not in lpm_of(world, "alpha").authenticated_siblings()
    return alpha_client, mid, leaf


def test_snapshot_teaches_routes(world):
    alpha_client, _mid, leaf = build_chain(world)
    alpha_client.snapshot()
    routes = lpm_of(world, "alpha").router.cache
    assert routes.route_to("gamma") == ["alpha", "beta", "gamma"]


def test_two_hop_control_via_learned_route(world):
    alpha_client, _mid, leaf = build_chain(world)
    alpha_client.snapshot()  # learn the route
    result = alpha_client.stop(leaf)
    assert result["host"] == "gamma"
    proc = world.host("gamma").kernel.procs.get(leaf.pid)
    assert proc.state.value == "stopped"
    # Still no direct alpha-gamma channel: the action was forwarded.
    assert "gamma" not in lpm_of(world, "alpha").authenticated_siblings()


def test_control_without_route_uses_locate_broadcast(world):
    alpha_client, _mid, leaf = build_chain(world)
    # No snapshot: alpha has no route to gamma and must locate.
    result = alpha_client.stop(leaf)
    assert result["ok"]
    proc = world.host("gamma").kernel.procs.get(leaf.pid)
    assert proc.state.value == "stopped"
    # The locate reply taught the route for next time.
    assert lpm_of(world, "alpha").router.cache.route_to("gamma") is not None


def test_control_totally_unknown_host_opens_direct_channel(world):
    alpha_client = PPMClient(world, "lfc", "alpha").connect()
    delta_client = PPMClient(world, "lfc", "delta").connect()
    target = delta_client.create_process("lonely",
                                         program=spinner_spec(None))
    # alpha has no sibling link at all; locate cannot find it (no
    # overlay path), so a direct channel is opened as a fallback.
    result = alpha_client.stop(target)
    assert result["ok"]


def test_route_invalidated_when_intermediate_dies(world):
    alpha_client, _mid, leaf = build_chain(world)
    alpha_client.snapshot()
    world.host("beta").crash()
    world.run_for(10_000.0)  # break detection
    assert lpm_of(world, "alpha").router.cache.route_to("gamma") is None
    # Control still succeeds: the LPM falls back to a direct channel.
    result = alpha_client.stop(leaf)
    assert result["ok"]


def test_forwarding_does_not_open_new_channels(world):
    alpha_client, _mid, leaf = build_chain(world)
    alpha_client.snapshot()
    opened_before = world.network.stats.connections_opened
    alpha_client.stop(leaf)
    alpha_client.cont(leaf)
    assert world.network.stats.connections_opened == opened_before


def test_kill_two_hops_away(world):
    alpha_client, _mid, leaf = build_chain(world)
    alpha_client.snapshot()
    alpha_client.kill(leaf)
    proc = world.host("gamma").kernel.procs.find(leaf.pid)
    assert proc is None or not proc.alive


def test_locate_times_out_for_nonexistent_process(world):
    alpha_client, _mid, _leaf = build_chain(world)
    with pytest.raises(PPMError):
        alpha_client.stop(GlobalPid("gamma", 9999))
