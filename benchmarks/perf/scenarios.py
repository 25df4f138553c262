"""The world-scale benchmark scenarios: LOCATE at scale, multi-tenancy.

Each scenario function builds its worlds (outside the measured window —
a 200-host full mesh takes most of a minute to wire) and returns the
measured phase as a zero-argument callable producing the result dict,
which ``benchmarks.perf.runner`` times and counts like the ``run``
closure of every other scenario.  Stimuli are issued as one zero-delay
scheduled event at the current instant rather than called directly, so
the event counts match the recorded ``BENCH_core.json`` rows.
"""

from __future__ import annotations

from typing import Callable

from repro import PPMClient, PPMConfig, install, spinner_spec
from repro.netsim import HostClass
from repro.unixsim import World

#: Post-locate drain: lets duplicate storms and prune feedback settle
#: before per-host statistics are read.
DRAIN_MS = 10_000.0


def _flood_forwards(world) -> int:
    """Total broadcast forwards across the fleet."""
    return sum(lpm.broadcast.forwards for lpm in world.lpms.values())


def _open_links(world) -> int:
    """Open overlay links across the fleet (each counted at both ends)."""
    return sum(len(lpm.transport.authenticated())
               for lpm in world.lpms.values()) // 2


def _build_world(policy: str, n_hosts: int, seed: int, hubs: int):
    """Build one fully converged PPM world.

    ``hubs == 0`` wires the classic single-Ethernet full mesh of links.
    ``hubs > 0`` builds the two-level topology used at 500 hosts: the
    first ``hubs`` hosts form a fully meshed backbone and every other
    host hangs off one hub, round-robin — O(n) links instead of O(n²),
    which keeps the physical-path BFS tractable at that scale.
    """
    config = PPMConfig(topology_policy=policy)
    world = World(seed=seed, config=config)
    names = ["h%03d" % i for i in range(n_hosts)]
    for name in names:
        world.add_host(name, HostClass.VAX_780)
    if hubs:
        hub_names = names[:hubs]
        world.ethernet(hub_names)
        wire = world.cost_model.wire_ms
        for i, leaf in enumerate(names[hubs:]):
            world.network.add_link(leaf, hub_names[i % hubs],
                                   latency_ms=wire)
    else:
        world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    world.write_recovery_file("lfc", [names[0]])
    origin = PPMClient(world, "lfc", names[0]).connect()
    target = None
    for name in names[1:]:
        gpid = origin.create_process("job-%s" % name, host=name,
                                     program=spinner_spec(None))
        if name == names[-1]:
            target = gpid

    if policy == "full_mesh":
        want = n_hosts * (n_hosts - 1) // 2
        world.run_until_true(lambda: _open_links(world) == want,
                             timeout_ms=3_600_000.0)
    else:
        # Sparse: wait for membership gossip to converge, then let the
        # debounced rewiring finish opening neighbor links.
        world.run_until_true(
            lambda: all(
                len(world.lpms[(n, "lfc")].topology.membership) == n_hosts
                for n in names),
            timeout_ms=3_600_000.0)
        world.run_for(10_000.0)
    return world, names, target


def _locate_seq(world, names, target, count: int, policy: str) -> None:
    """Sequential lookups from a non-origin host, each seeing the caches
    (route, tree, negative) the previous one left behind.

    The settle timeout must outlast the mesh duplicate storm: the
    caller's dispatcher drains ~n load-scaled duplicate arrivals before
    it can process the LOCATE_ACK.
    """
    results: list = []
    caller = names[1]
    for k in range(count):
        def issue() -> None:
            world.lpms[(caller, "lfc")].locate(
                target.host, target.pid, results.append,
                timeout_ms=600_000.0)

        world.sim.schedule(0.0, issue)
        found = world.run_until_true(lambda k=k: len(results) == k + 1,
                                     timeout_ms=1_200_000.0)
        assert found, "locate %d timed out on the %s overlay" % (k, policy)
    assert all(r is not None for r in results), \
        "locate failed on the %s overlay" % (policy,)


def locate_scenario(n_hosts: int = 200, mesh_locates: int = 2,
                    sparse_locates: int = 8,
                    policies=("full_mesh", "sparse"), hubs: int = 0,
                    seed: int = 31) -> Callable[[], dict]:
    """Steady-state LOCATE cost at scale — full mesh vs sparse overlay.

    The ``locate_200_hosts`` benchmark (see the module docstring of
    ``benchmarks.perf.runner`` for what it measures);
    ``locate_500_hosts`` runs the same function sparse-only on the
    two-level hub topology.
    """
    worlds = {policy: _build_world(policy, n_hosts, seed, hubs)
              for policy in policies}

    def run() -> dict:
        result = {"n_hosts": n_hosts}
        per_locate = {}
        for policy in policies:
            world, names, target = worlds[policy]
            base = _flood_forwards(world)
            _locate_seq(world, names, target, 1, policy)
            # The reply races the flood it rode in on: let duplicate
            # arrivals and prune feedback drain before the steady
            # window, so the tree is fully pruned when it's measured.
            world.run_for(DRAIN_MS)
            warm = _flood_forwards(world) - base
            repeats = (mesh_locates if policy == "full_mesh"
                       else sparse_locates)
            _locate_seq(world, names, target, repeats, policy)
            world.run_for(DRAIN_MS)
            steady = _flood_forwards(world) - base - warm
            per_locate[policy] = steady / repeats
            result.update({
                "links_%s" % policy: _open_links(world),
                "warm_flood_forwards_%s" % policy: warm,
                "steady_locates_%s" % policy: repeats,
                "steady_forwards_per_locate_%s" % policy:
                    round(per_locate[policy], 1),
            })

            if policy == "sparse":
                # A failed lookup on a routeless host floods once — in
                # tree mode, ~n−1 forwards — and its repeat is refused
                # from the negative cache with no traffic at all.
                caller = names[1]
                misses: list = []
                before_miss = _flood_forwards(world)
                for k in range(2):
                    world.sim.schedule(
                        0.0, lambda: world.lpms[(caller, "lfc")].locate(
                            "h-gone", 99_999, misses.append))
                    found = world.run_until_true(
                        lambda k=k: len(misses) == k + 1,
                        timeout_ms=120_000.0)
                    assert found, "miss lookup %d timed out" % (k,)
                world.run_for(DRAIN_MS)
                assert misses == [None, None], \
                    "negative lookups resolved: %r" % (misses,)
                result["miss_flood_forwards_sparse"] = \
                    _flood_forwards(world) - before_miss
                result["sim_ms_sparse"] = round(world.sim.now_ms, 3)

        if "full_mesh" in per_locate and "sparse" in per_locate:
            result["link_reduction_x"] = round(
                result["links_full_mesh"] / max(1, result["links_sparse"]),
                1)
            result["forward_reduction_x"] = round(
                per_locate["full_mesh"] / max(1.0, per_locate["sparse"]), 1)
        return result

    return run


def _pools(world) -> list:
    """The circuit pools of the hosts that grew one."""
    pools = (getattr(host, "_circuit_pool", None)
             for host in world.hosts.values())
    return [pool for pool in pools if pool is not None]


def _physical_links(world, sharing: bool) -> int:
    """Steady-state inter-host connections, counted once per circuit.

    With sharing on, the physical connections are the pools' circuits;
    with sharing off every authenticated sibling link is its own
    connection.
    """
    if sharing:
        return sum(pool.open_circuit_count() for pool in _pools(world)) // 2
    return _open_links(world)


def multitenant_scenario(n_users: int = 50, n_hosts: int = 24,
                         gateways: int = 4, fanout: int = 10,
                         horizon_ms: float = 120_000.0,
                         seed: int = 47) -> Callable[[], dict]:
    """M users x N hosts under the open-loop workload — shared circuits
    vs one private circuit per user pair (``benchmarks.workloads``).

    Runs the identical lognormal session schedule twice, with
    ``circuit_sharing`` on and off, and reports per-op latency SLOs
    plus the steady-state inter-host connection count of each mode.
    The multi-tenancy claim is the ratio: co-located users' sibling
    channels collapse onto one circuit per host pair.
    """
    from benchmarks.workloads import (build_multitenant_world,
                                      schedule_sessions, slo_block)

    modes = (("shared", True), ("private", False))
    worlds = {}
    for mode, sharing in modes:
        world, names, users, homes = build_multitenant_world(
            n_users, n_hosts, gateways, seed, sharing)
        state = schedule_sessions(world, users, homes,
                                  leaf_names=names[gateways:],
                                  fanout=fanout, horizon_ms=horizon_ms,
                                  seed=seed + 1)
        worlds[mode] = (world, state)

    def run() -> dict:
        result = {"n_users": n_users, "n_hosts": n_hosts,
                  "gateways": gateways, "fanout": fanout}
        failed = 0
        for mode, sharing in modes:
            world, state = worlds[mode]
            world.run_for(horizon_ms + DRAIN_MS)
            # Open-loop arrivals have a heavy tail; top up in bounded
            # slices until every session has reported done (or failed).
            rounds = 0
            while state.done < n_users and rounds < 60:
                world.run_for(30_000.0)
                rounds += 1
            assert state.done == n_users, \
                "%s: only %d/%d sessions finished" % (mode, state.done,
                                                      n_users)
            failed += state.failures
            # Sessions leave their fan-out processes running, so the
            # links counted here are the steady state a populated fleet
            # holds.
            result["links_%s" % mode] = _physical_links(world, sharing)
            if sharing:
                result["lanes_shared"] = sum(
                    pool.lane_count() for pool in _pools(world)) // 2
            result["slo_%s" % mode] = slo_block(state.hists)
            result["sim_ms_%s" % mode] = round(world.sim.now_ms, 3)

        result["failed_sessions"] = failed
        result["link_reduction_x"] = round(
            result["links_private"] / max(1, result["links_shared"]), 1)
        return result

    return run
