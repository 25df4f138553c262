"""Tests for topology, routing, partitions, and crashes."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    NoSuchHostError,
    SimulationError,
    UnreachableHostError,
)
from repro.netsim import HostClass, Network, Simulator


def make_network(names=("a", "b", "c")):
    sim = Simulator()
    net = Network(sim)
    for name in names:
        net.add_node(name)
    return sim, net


def test_add_and_lookup_node():
    _, net = make_network()
    assert net.node("a").name == "a"
    with pytest.raises(NoSuchHostError):
        net.node("zz")


def test_duplicate_node_rejected():
    _, net = make_network()
    with pytest.raises(SimulationError):
        net.add_node("a")


def test_self_link_rejected():
    _, net = make_network()
    with pytest.raises(SimulationError):
        net.add_link("a", "a")


def test_path_on_chain():
    _, net = make_network()
    net.add_link("a", "b")
    net.add_link("b", "c")
    assert net.find_path("a", "c") == ["a", "b", "c"]
    assert net.find_path("a", "a") == ["a"]


def test_shortest_path_preferred():
    _, net = make_network(("a", "b", "c", "d"))
    net.add_link("a", "b")
    net.add_link("b", "c")
    net.add_link("c", "d")
    net.add_link("a", "d")
    assert net.find_path("a", "d") == ["a", "d"]


def test_no_path_when_disconnected():
    _, net = make_network()
    net.add_link("a", "b")
    assert net.find_path("a", "c") is None
    assert not net.reachable("a", "c")


def test_ethernet_builds_full_mesh():
    _, net = make_network(("a", "b", "c", "d"))
    net.ethernet(["a", "b", "c", "d"])
    assert len(net.links) == 6
    # Idempotent: no duplicate links.
    net.ethernet(["a", "b", "c", "d"])
    assert len(net.links) == 6


def test_transit_delay_includes_per_link_latency_and_bytes():
    _, net = make_network()
    net.add_link("a", "b", latency_ms=10.0, bandwidth_bytes_per_ms=100.0)
    net.add_link("b", "c", latency_ms=10.0, bandwidth_bytes_per_ms=100.0)
    # Two links: 2 * (10 + 200/100) = 24.
    assert net.transit_delay_ms("a", "c", 200) == pytest.approx(24.0)


def test_transit_raises_when_unreachable():
    _, net = make_network()
    with pytest.raises(UnreachableHostError):
        net.transit_delay_ms("a", "b", 10)


def test_crash_removes_paths_through_host():
    _, net = make_network()
    net.add_link("a", "b")
    net.add_link("b", "c")
    net.crash_host("b")
    assert not net.reachable("a", "c")
    assert not net.reachable("a", "b")
    net.revive_host("b")
    assert net.reachable("a", "c")


def test_partition_cuts_cross_group_links():
    _, net = make_network()
    net.ethernet(["a", "b", "c"])
    net.set_partition([{"a"}, {"b", "c"}])
    assert not net.reachable("a", "b")
    assert net.reachable("b", "c")
    net.heal_partition()
    assert net.reachable("a", "b")


def test_partition_remainder_forms_implicit_group():
    _, net = make_network(("a", "b", "c", "d"))
    net.ethernet(["a", "b", "c", "d"])
    net.set_partition([{"a", "b"}])
    assert net.reachable("a", "b")
    assert net.reachable("c", "d")
    assert not net.reachable("a", "c")


def test_overlapping_partition_groups_rejected():
    _, net = make_network()
    net.ethernet(["a", "b", "c"])
    with pytest.raises(SimulationError):
        net.set_partition([{"a", "b"}, {"b", "c"}])


def test_link_state_toggle():
    _, net = make_network()
    net.add_link("a", "b")
    net.set_link_state("a", "b", up=False)
    assert not net.reachable("a", "b")
    net.set_link_state("a", "b", up=True)
    assert net.reachable("a", "b")
    with pytest.raises(NoSuchHostError):
        net.set_link_state("a", "c", up=False)


def test_topology_listener_fires_on_changes():
    _, net = make_network()
    net.ethernet(["a", "b", "c"])
    calls = []
    net.add_topology_listener(lambda: calls.append(1))
    net.crash_host("a")
    net.revive_host("a")
    net.set_partition([{"a"}])
    net.heal_partition()
    assert len(calls) == 4


def test_node_host_class_recorded():
    sim = Simulator()
    net = Network(sim)
    node = net.add_node("sun", host_class=HostClass.SUN_2)
    assert node.host_class is HostClass.SUN_2


def test_services_register_and_unregister():
    _, net = make_network()
    node = net.node("a")
    node.listen("inetd", lambda ep, payload: None)
    assert "inetd" in node.services
    node.unlisten("inetd")
    assert "inetd" not in node.services
    node.unlisten("inetd")  # idempotent


# ----------------------------------------------------------------------
# The (path, links) memo against a from-scratch BFS and walk
# ----------------------------------------------------------------------

_HOSTS = ("a", "b", "c", "d", "e")
_PAIRS = [(x, y) for i, x in enumerate(_HOSTS) for y in _HOSTS[i + 1:]]

_TOPOLOGY_OPS = st.one_of(
    st.tuples(st.just("add_link"), st.sampled_from(_PAIRS),
              st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("set_link_state"), st.sampled_from(_PAIRS),
              st.booleans()),
    st.tuples(st.just("set_partition"),
              st.lists(st.sampled_from(_HOSTS), unique=True, max_size=3)),
    st.tuples(st.just("heal_partition")),
    st.tuples(st.just("crash_host"), st.sampled_from(_HOSTS)),
    st.tuples(st.just("revive_host"), st.sampled_from(_HOSTS)),
)


def _scratch_transit(net, src, dst, nbytes):
    """Breadth-first search over ``net.links`` in insertion order, then
    a walk over the first link joining each hop: no memo involved."""
    if not net.nodes[src].up or not net.nodes[dst].up:
        raise UnreachableHostError("%s -> %s" % (src, dst))

    def touching(name):
        return [link for link in net.links if name in (link.a, link.b)]

    path = [src] if src == dst else None
    seen = {src}
    frontier = deque([[src]])
    while frontier and path is None:
        here = frontier.popleft()
        for link in touching(here[-1]):
            other = link.b if link.a == here[-1] else link.a
            if not link.usable or not net.nodes[other].up or other in seen:
                continue
            if other == dst:
                path = here + [other]
                break
            seen.add(other)
            frontier.append(here + [other])
    if path is None:
        raise UnreachableHostError("%s -> %s" % (src, dst))
    delay = 0.0
    for hop_a, hop_b in zip(path, path[1:]):
        link = next(link for link in touching(hop_a)
                    if {link.a, link.b} == {hop_a, hop_b})
        if not link.usable:
            raise UnreachableHostError("%s-%s" % (hop_a, hop_b))
        delay += link.transfer_delay_ms(nbytes)
    return delay


def _outcome(compute, *args):
    try:
        return compute(*args)
    except UnreachableHostError:
        return "unreachable"


@given(st.lists(_TOPOLOGY_OPS, min_size=1, max_size=25))
@settings(max_examples=100, deadline=None)
def test_transit_memo_matches_scratch_after_every_change(ops):
    _, net = make_network(_HOSTS)
    for op in ops:
        name = op[0]
        if name == "add_link":
            (a, b), latency = op[1], op[2]
            net.add_link(a, b, latency_ms=float(latency),
                         bandwidth_bytes_per_ms=100.0 * latency)
        elif name == "set_link_state":
            (a, b), up = op[1], op[2]
            if net.link_between(a, b) is None:
                continue
            net.set_link_state(a, b, up=up)
        elif name == "set_partition":
            net.set_partition([set(op[1])])
        else:
            getattr(net, name)(*op[1:])
        for src in _HOSTS:
            for dst in _HOSTS:
                # Twice: the second read is answered from the memo.
                for _ in range(2):
                    assert (_outcome(net.transit_delay_ms, src, dst, 300)
                            == _outcome(_scratch_transit, net, src, dst, 300))
