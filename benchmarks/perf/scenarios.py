"""The world-scale benchmark scenario: multi-tenancy.

The scenario function builds its worlds (outside the measured window)
and returns the measured phase as a zero-argument callable producing
the result dict, which ``benchmarks.perf.runner`` times and counts like
the ``run`` closure of every other scenario.
"""

from __future__ import annotations

from typing import Callable

#: Post-horizon drain: lets in-flight sessions settle before per-host
#: statistics are read.
DRAIN_MS = 10_000.0


def _open_links(world) -> int:
    """Open overlay links across the fleet (each counted at both ends)."""
    return sum(len(lpm.transport.authenticated())
               for lpm in world.lpms.values()) // 2


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
