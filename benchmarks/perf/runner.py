"""Hot-path microbenchmarks: five simulated scenarios, timed and counted.

The scenarios cover the paths every experiment in the reproduction
runs through:

``broadcast_flood``
    One LOCATE broadcast over a full-mesh sibling graph — the
    duplicate-suppression worst case: every LPM floods every sibling,
    and the dedup seen-set absorbs the quadratic duplicate storm.

``snapshot_40_hosts``
    The A4 stress setup (section 8 "into the tens of nodes"): a
    40-host star session, three snapshot gathers.

``span_overhead``
    The span-tracing layer's cost: the same multi-host snapshot
    session run untraced and traced (``repro.perf.spans``), recording
    both simulated times (they legitimately differ — the span context
    rides the wire and is charged bytes), the wall-clock overhead
    ratio, and the span volume.  ``--trace-out`` additionally exports
    the traced run as Chrome trace-event JSON.

``watch_steady``
    The operational surface's read-only contract: repeated
    ``probe_world`` + ``run_doctor`` + ``Watcher.feed`` sweeps over a
    healthy 40-host session, asserting the simulated clock and the
    event-schedule count are untouched afterwards — the doctor and
    the watch loop cannot move a single ``sim_ms`` (see
    ``docs/OPERATIONS.md``) — that every sweep is healthy, and that
    ``doctor_runs``/``watch_sweeps`` count one per sweep with zero
    ``watch_edges``.

``multitenant_50x24``
    The multi-tenant claim: 50 users x 24 hosts (8 x 6 under --smoke)
    under the open-loop lognormal workload of ``benchmarks.workloads``
    (login -> create fan-out -> locate -> tool_call -> gather), every
    user's LPM on its own private circuits.  Records per-op latency
    SLOs (p50/p95/p99) and the steady-state inter-host connection
    count.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.runner [--smoke]
        [--budget-s SECONDS] [--trace-out trace.json] [--profile]

Each scenario prints one JSON line: its simulated results, its
counters and its measured wall time.  The runner writes no file except
the one ``--trace-out`` names; the simulated values are pinned in
``BENCH_core.json``, which only ``tools/check_bench.py --record``
rewrites.  ``--smoke`` shrinks every scenario so CI can assert the
benchmarks still *run* without caring about timings; ``--budget-s``
additionally fails the run (exit status 2) when the summed measured
wall time exceeds the budget, so a hot-path regression fails the
build rather than slipping through.

``--profile`` wraps every scenario in cProfile and prints the top 20
cumulative entries next to its result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import PPMClient, PPMConfig, spinner_spec
from repro.bench import fresh_world
from repro.netsim import HostClass
from repro.perf import PERF

#: The counters each scenario reports (a subset keeps the JSON legible).
_REPORTED = (
    "encodes_performed", "size_calls",
    "bytes_charged", "hmac_computed", "hmac_cache_hits",
    "dedup_checks", "dedup_entries_scanned", "dedup_entries_expired",
    "events_scheduled", "events_run", "events_cancelled",
    "heap_compactions",
    "gather_merges", "gather_records_merged",
    "stream_batched_deliveries", "stream_segments_drained",
    "auth_cache_hits",
)


def _measure(fn):
    """Run ``fn`` with counters reset; return (result, metrics)."""
    PERF.reset()
    start = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - start
    metrics = {"wall_s": round(wall_s, 4)}
    snapshot = PERF.snapshot()
    metrics.update({name: snapshot[name] for name in _REPORTED})
    if isinstance(result, dict):
        metrics.update(result)
    return metrics


def _star_world(n_hosts: int, seed: int, config: PPMConfig = None):
    """A fresh world of ``n_hosts`` VAX 11/780s named ``h00``, ``h01``,
    ...; returns it and the names."""
    names = ["h%02d" % i for i in range(n_hosts)]
    return fresh_world([(name, HostClass.VAX_780) for name in names],
                       seed=seed, config=config), names


def _star_session(world, names) -> PPMClient:
    """``lfc``'s tool on ``names[0]``, with one spinner on every other
    host; returns the tool."""
    origin = PPMClient(world, "lfc", names[0]).connect()
    for name in names[1:]:
        origin.create_process("job-%s" % name, host=name,
                              program=spinner_spec(None))
    return origin


# ----------------------------------------------------------------------
# Scenario 1: broadcast flood over a full mesh
# ----------------------------------------------------------------------

def bench_broadcast_flood(smoke: bool = False) -> dict:
    n_hosts = 4 if smoke else 12
    world, names = _star_world(
        n_hosts, 23, PPMConfig(topology_policy="full_mesh"))
    _star_session(world, names)
    world.run_for(2_000.0)  # let the full mesh finish wiring itself

    def run() -> dict:
        # A LOCATE for an unknown pid floods the whole mesh and every
        # duplicate arrival exercises the dedup engine.
        lpm = world.lpms[(names[0], "lfc")]
        done = []
        lpm.locate(names[-1], 99_999, done.append)
        world.run_until_true(lambda: bool(done), timeout_ms=30_000.0)
        forwards = sum(world.lpms[(name, "lfc")].broadcast.forwards
                       for name in names)
        duplicates = sum(
            world.lpms[(name, "lfc")].broadcast.duplicates_dropped
            for name in names)
        return {"n_hosts": n_hosts, "flood_forwards": forwards,
                "duplicates_dropped": duplicates,
                "sim_ms": round(world.sim.now_ms, 3)}

    return _measure(run)


# ----------------------------------------------------------------------
# Scenario 2: snapshot gather at 40 hosts (the A4 setup)
# ----------------------------------------------------------------------

def bench_snapshot(smoke: bool = False) -> dict:
    n_hosts = 6 if smoke else 40
    rounds = 1 if smoke else 3
    world, names = _star_world(n_hosts, 17)
    origin = _star_session(world, names)
    origin.snapshot()  # warm-up, outside the measured window

    def run() -> dict:
        start_ms = world.sim.now_ms
        for _ in range(rounds):
            forest = origin.snapshot(prune=False)
            assert len(forest) == n_hosts - 1
        return {"n_hosts": n_hosts, "rounds": rounds,
                "snapshot_sim_ms": round(
                    (world.sim.now_ms - start_ms) / rounds, 3)}

    return _measure(run)


# ----------------------------------------------------------------------
# Scenario 3: span-tracing overhead — the same session, off vs on
# ----------------------------------------------------------------------

def bench_span_overhead(smoke: bool = False, trace_out=None) -> dict:
    from repro.perf.spans import enable_tracing

    n_hosts = 5 if smoke else 20
    rounds = 1 if smoke else 3

    def session(traced: bool):
        world, names = _star_world(n_hosts, 29)
        tracer = enable_tracing(world.sim) if traced else None
        start = time.perf_counter()
        origin = _star_session(world, names)
        for _ in range(rounds):
            forest = origin.snapshot(prune=False)
            assert len(forest) == n_hosts - 1
        wall_s = time.perf_counter() - start
        return world, tracer, wall_s

    def run() -> dict:
        world_off, _, wall_off_s = session(traced=False)
        world_on, tracer, wall_on_s = session(traced=True)
        result = {
            "n_hosts": n_hosts, "rounds": rounds,
            "sim_ms_off": round(world_off.sim.now_ms, 3),
            "sim_ms_on": round(world_on.sim.now_ms, 3),
            "wall_off_s": round(wall_off_s, 4),
            "wall_on_s": round(wall_on_s, 4),
            "wall_overhead_x": round(wall_on_s / wall_off_s, 2)
            if wall_off_s else None,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "rpc_rtt_p95_ms":
                tracer.histograms["rpc_rtt"].summary()["p95_ms"],
        }
        if trace_out:
            from repro.perf.chrometrace import write_chrome_trace
            result["trace_events"] = write_chrome_trace(tracer, trace_out)
            result["trace_out"] = trace_out
        return result

    return _measure(run)


# ----------------------------------------------------------------------
# Scenario 4: watch steady state — the ops layer's read-only guarantee
# ----------------------------------------------------------------------

def bench_watch_steady(smoke: bool = False) -> dict:
    from repro.ops import Watcher, probe_world, run_doctor

    n_hosts = 6 if smoke else 40
    sweeps = 20 if smoke else 200
    world, names = _star_world(n_hosts, 31)
    _star_session(world, names)
    world.run_for(2_000.0)

    def run() -> dict:
        # The contract OPERATIONS.md sells: probing is pure observation.
        # Any event a sweep scheduled or any clock tick it consumed
        # would shift every sim_ms after it — so assert both are frozen.
        watcher = Watcher()
        sim_before = world.sim.now_ms
        events_before = PERF.snapshot()["events_scheduled"]
        healthy = 0
        for _ in range(sweeps):
            view = probe_world(world)
            report = run_doctor(view)
            healthy += report.ok
            watcher.feed(report, view.probed_at_ms)
        assert world.sim.now_ms == sim_before, \
            "watch sweep advanced the simulated clock"
        assert PERF.snapshot()["events_scheduled"] == events_before, \
            "watch sweep scheduled simulator events"
        assert healthy == sweeps
        counters = PERF.snapshot()
        assert counters["doctor_runs"] == sweeps
        assert counters["watch_sweeps"] == sweeps
        assert counters["watch_edges"] == 0, \
            "a healthy steady state has no incident edges"
        return {"n_hosts": n_hosts, "sweeps": sweeps,
                "doctor_runs": counters["doctor_runs"],
                "watch_sweeps": counters["watch_sweeps"],
                "sim_ms": round(world.sim.now_ms, 3)}

    return _measure(run)


# ----------------------------------------------------------------------
# Scenario 5: multi-tenancy (benchmarks.workloads)
# ----------------------------------------------------------------------

def bench_multitenant(smoke: bool = False) -> dict:
    from benchmarks.workloads import multitenant_scenario

    return _measure(multitenant_scenario(
        n_users=8 if smoke else 50,
        n_hosts=6 if smoke else 24,
        gateways=2 if smoke else 4,
        fanout=3 if smoke else 10,
        horizon_ms=20_000.0 if smoke else 120_000.0))


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

SCENARIOS = {
    "broadcast_flood": bench_broadcast_flood,
    "snapshot_40_hosts": bench_snapshot,
    "span_overhead": bench_span_overhead,
    "watch_steady": bench_watch_steady,
    "multitenant_50x24": bench_multitenant,
}


def _profiled(call):
    """Run ``call()`` under cProfile; return (result, top-20 text)."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(
        "cumulative").print_stats(20)
    return result, stream.getvalue()


def run_all(smoke: bool = False, trace_out=None,
            profile: bool = False) -> dict:
    results = {}
    for name, fn in SCENARIOS.items():
        print("running %s%s ..." % (name, " (smoke)" if smoke else ""),
              flush=True)
        # Scope the process-global counter registry per scenario: the
        # reset covers world construction too (``_measure`` resets again
        # around the measured window), and the final reset below keeps
        # the last scenario's counts from bleeding into whatever runs
        # in this process next.
        PERF.reset()
        if name == "span_overhead":
            call = lambda: fn(smoke=smoke, trace_out=trace_out)  # noqa: E731
        else:
            call = lambda fn=fn: fn(smoke=smoke)  # noqa: E731
        if profile:
            results[name], report = _profiled(call)
        else:
            results[name], report = call(), None
        print("  %s" % (json.dumps(results[name], sort_keys=True),))
        if report is not None:
            print("  profile (top 20 cumulative):")
            for line in report.splitlines():
                print("    %s" % (line,))
    PERF.reset()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; assert completion, not speed")
    parser.add_argument("--budget-s", type=float, default=None,
                        help="fail (exit 2) if the summed measured wall "
                             "time exceeds this many seconds")
    parser.add_argument("--trace-out", default=None,
                        help="export the span_overhead scenario's traced "
                             "run as Chrome trace-event JSON to this path")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each scenario; print the top 20 "
                             "cumulative entries next to its result")
    args = parser.parse_args(argv)
    results = run_all(smoke=args.smoke, trace_out=args.trace_out,
                      profile=args.profile)
    if args.budget_s is not None:
        total_wall_s = sum(metrics["wall_s"] for metrics in results.values())
        print("total measured wall time: %.3fs (budget %.3fs)"
              % (total_wall_s, args.budget_s))
        if total_wall_s > args.budget_s:
            print("TIMING BUDGET EXCEEDED: %.3fs > %.3fs"
                  % (total_wall_s, args.budget_s))
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
