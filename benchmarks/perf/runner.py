"""Hot-path microbenchmarks, writing the repo's perf trajectory.

The scenarios cover the paths every experiment in the reproduction
runs through:

``encode_throughput``
    Message serialisation and size accounting, including hop-by-hop
    route growth (the broadcast-forwarding pattern that re-sizes the
    same message at every hop).

``broadcast_flood``
    One LOCATE broadcast over a full-mesh sibling graph — the
    duplicate-suppression worst case: every LPM floods every sibling,
    and the dedup seen-set absorbs the quadratic duplicate storm.

``snapshot_40_hosts``
    The A4 stress setup (section 8 "into the tens of nodes"): a
    40-host star session, three snapshot gathers.

``stream_flood``
    The stream-transport worst case: N back-to-back sends per circuit
    across M circuits.  The old shape (one simulator event per
    in-flight segment, reproduced inline with the exact arrival-time
    arithmetic) against the batched per-circuit-direction delivery
    timer, asserting the arrival times are byte-identical and
    recording the event-queue push counts for both.

``span_overhead``
    The span-tracing layer's cost: the same multi-host snapshot
    session run untraced and traced (``repro.perf.spans``), recording
    both simulated times (they legitimately differ — the span context
    rides the wire and is charged bytes), the wall-clock overhead
    ratio, and the span volume.  ``--trace-out`` additionally exports
    the traced run as Chrome trace-event JSON.

``doctor_sweep``
    The operational surface's read-only contract: repeated
    ``probe_world`` + ``run_doctor`` sweeps over a live multi-host
    session, asserting the simulated clock and the event-schedule
    count are untouched afterwards — the doctor in the loop cannot
    move a single ``sim_ms`` (see ``docs/OPERATIONS.md``).

``watch_steady``
    The continuous watch loop's sampling overhead: repeated
    ``probe_world`` + ``run_doctor`` + ``Watcher.feed`` sweeps with a
    full :class:`~repro.perf.timeseries.MetricsSampler` attached over
    a healthy multi-host session.  Asserts the frozen-clock /
    zero-events contract still holds with the watch layer on top,
    that ``watch_sweeps``/``watch_samples`` count one per sweep with
    zero ``watch_edges``, and that every ring series respects its
    capacity bound (the loop's memory does not grow with uptime).

``locate_200_hosts``
    The steady-state LOCATE cost at scale (24 hosts under --smoke):
    the full-mesh overlay, where every lookup floods all O(n²) edges,
    against the ``sparse`` bounded-degree overlay, where the first
    lookup floods O(n·k) edges and repeats ride the route cache (a
    two-message unicast probe), repeat *broadcasts* ride the pruned
    per-source tree (~n−1 forwards), and repeated failed lookups are
    refused from the negative cache without any traffic.  Records
    open-link counts and per-locate flood forwards for both shapes.

``locate_500_hosts``
    The sparse overlay alone at 500 hosts (48 under --smoke) on a
    two-level hub topology — 10 fully meshed backbone hosts with the
    rest hanging off them, O(n) physical links.

``multitenant_50x24``
    The multi-tenant claim: 50 users x 24 hosts (8 x 6 under --smoke)
    under the open-loop lognormal workload of ``benchmarks.workloads``
    (login -> create fan-out -> locate -> tool_call -> gather), run
    twice — ``circuit_sharing`` on vs off.  Records per-op latency
    SLOs (p50/p95/p99) for both modes plus the steady-state inter-host
    connection counts: with sharing, co-located users' sibling
    channels collapse onto one circuit per host pair (target >= 5x
    fewer connections at full scale).

Usage::

    PYTHONPATH=src python -m benchmarks.perf.runner [--smoke]
        [--label before|after] [--output BENCH_core.json]
        [--budget-s SECONDS] [--trace-out trace.json] [--profile]

Wall-clock and counter deltas are merged into ``BENCH_core.json`` at
the repo root under the given label, so successive PRs accumulate a
before/after trajectory.  ``--smoke`` shrinks every scenario so CI can
assert the benchmarks still *run* without caring about timings;
``--budget-s`` additionally fails the run (exit status 2) when the
summed measured wall time exceeds the budget, so a hot-path regression
fails the build rather than slipping through.

``--profile`` wraps every scenario in cProfile and prints the top 20
cumulative entries next to its result.

Every run also appends each scenario's wall time to
``wall_history.json`` (keyed by smoke/full mode);
under ``--smoke`` the run fails (exit status 3) when a scenario takes
more than twice its best recorded time, so CI catches gross wall-clock
regressions without timing full-size runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from repro import PPMClient, PPMConfig, install, spinner_spec
from repro.core.messages import Message, MsgKind
from repro.core.wire import message_size_bytes
from repro.netsim import HostClass, Network, Simulator, StreamConnection
from repro.perf import PERF
from repro.unixsim import World

#: The counters each scenario reports (a subset keeps the JSON legible).
_REPORTED = (
    "encodes_performed", "encode_cache_hits", "size_calls",
    "bytes_charged", "hmac_computed", "hmac_cache_hits",
    "dedup_checks", "dedup_entries_scanned", "dedup_entries_expired",
    "events_scheduled", "events_run", "events_cancelled",
    "heap_compactions",
    "gather_merges", "gather_records_merged",
    "stream_batched_deliveries", "stream_segments_drained",
    "stream_timer_rearms",
    "tree_forwards", "tree_prunes", "tree_repairs",
    "locate_cache_hits", "locate_cache_stale",
    "circuit_shares", "circuit_lanes_attached", "auth_cache_hits",
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


# ----------------------------------------------------------------------
# Scenario 1: encode / size throughput
# ----------------------------------------------------------------------

def bench_encode(smoke: bool = False) -> dict:
    messages = 200 if smoke else 2_000
    hops = 8           # siblings that re-size the same message in flight
    payload = {"records": [{"pid": i, "command": "job-%d" % i,
                            "state": "running", "rusage":
                            {"utime_ms": 12.5 * i, "forks": i}}
                           for i in range(12)]}

    def run() -> dict:
        total = 0
        for index in range(messages):
            message = Message(kind=MsgKind.GATHER_REPLY, req_id=index,
                              origin="h00", user="lfc",
                              payload=payload, route=["h00", "h01"],
                              final_dest="h01")
            # The origin sizes the message once, then every forwarding
            # hop sizes it again (unchanged), then one hop extends the
            # route (broadcast pattern) and sizes the changed message.
            for _ in range(hops):
                total += message_size_bytes(message)
            message.route = message.route + ["h%02d" % (index % 40,)]
            total += message_size_bytes(message)
        return {"messages": messages, "sizes_per_message": hops + 1,
                "total_bytes": total}

    return _measure(run)


# ----------------------------------------------------------------------
# Scenario 2: broadcast flood over a full mesh
# ----------------------------------------------------------------------

def bench_broadcast_flood(smoke: bool = False) -> dict:
    n_hosts = 4 if smoke else 12
    config = PPMConfig(topology_policy="full_mesh")
    world = World(seed=23, config=config)
    names = ["h%02d" % i for i in range(n_hosts)]
    for name in names:
        world.add_host(name, HostClass.VAX_780)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    world.write_recovery_file("lfc", [names[0]])
    origin = PPMClient(world, "lfc", names[0]).connect()
    for name in names[1:]:
        origin.create_process("job-%s" % name, host=name,
                              program=spinner_spec(None))
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
# Scenario 3: snapshot gather at 40 hosts (the A4 setup)
# ----------------------------------------------------------------------

def bench_snapshot(smoke: bool = False) -> dict:
    n_hosts = 6 if smoke else 40
    rounds = 1 if smoke else 3
    world = World(seed=17)
    names = ["h%02d" % i for i in range(n_hosts)]
    for name in names:
        world.add_host(name, HostClass.VAX_780)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    world.write_recovery_file("lfc", [names[0]])
    origin = PPMClient(world, "lfc", names[0]).connect()
    for name in names[1:]:
        origin.create_process("job-%s" % name, host=name,
                              program=spinner_spec(None))
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
# Scenario 4: stream-transport flood — batched vs per-segment delivery
# ----------------------------------------------------------------------

def bench_stream_flood(smoke: bool = False) -> dict:
    n_circuits = 2 if smoke else 8
    sends = 50 if smoke else 1_000
    group = 10 if smoke else 100   # sends sharing one arrival time
    nbytes = 256

    def extra_for(k: int) -> float:
        # Every ``group`` sends step the extra delay, so arrivals form
        # sends/group distinct instants per circuit: the drain loop and
        # the timer re-arm both get exercised, not just one mega-batch.
        return (k // group) * 10.0

    def build():
        sim = Simulator(seed=7)
        net = Network(sim)
        names = []
        for i in range(n_circuits):
            names += ["s%02d" % i, "r%02d" % i]
        for name in names:
            net.add_node(name)
        net.ethernet(names)
        return sim, net

    def run() -> dict:
        # --- live code: batched per-circuit-direction delivery -------
        sim, net = build()
        arrivals_batched = [[] for _ in range(n_circuits)]
        endpoints = []
        for i in range(n_circuits):
            def acceptor(endpoint, payload, i=i):
                endpoint.on_message = (
                    lambda payload, ep, i=i:
                    arrivals_batched[i].append(sim.now_ms))
            net.node("r%02d" % i).listen("svc", acceptor)
            StreamConnection.connect(net, "s%02d" % i, "r%02d" % i, "svc",
                                     on_established=endpoints.append)
        sim.run_until_idle()
        assert len(endpoints) == n_circuits
        t0 = sim.now_ms
        base = PERF.snapshot()
        start = time.perf_counter()
        for endpoint in endpoints:
            for k in range(sends):
                endpoint.send(k, nbytes=nbytes,
                              extra_delay_ms=extra_for(k))
        sim.run_until_idle()
        batched_wall_s = time.perf_counter() - start
        delta = PERF.delta_since(base)
        pushes_batched = delta["events_scheduled"]

        # --- baseline: the seed's one-event-per-segment scheduler ----
        # Reproduced inline with the exact arrival arithmetic the old
        # ``transmit`` used (wire delay + extra, floored in-order), on a
        # fresh simulator started at the same instant, so the arrival
        # times must match float-for-float.
        sim2, net2 = build()
        sim2.run_until(t0)
        arrivals_seed = [[] for _ in range(n_circuits)]
        base = PERF.snapshot()
        start = time.perf_counter()
        for i in range(n_circuits):
            floor = 0.0
            for k in range(sends):
                # The seed's transmit routed every send individually.
                wire = net2.transit_delay_ms("s%02d" % i, "r%02d" % i,
                                             nbytes)
                arrival = max(sim2.now_ms + wire + extra_for(k), floor)
                floor = arrival
                sim2.schedule_at(
                    arrival,
                    lambda i=i: arrivals_seed[i].append(sim2.now_ms))
        sim2.run_until_idle()
        per_segment_wall_s = time.perf_counter() - start
        pushes_per_segment = PERF.delta_since(base)["events_scheduled"]

        assert arrivals_batched == arrivals_seed, \
            "batched delivery changed arrival times"
        assert all(len(a) == sends for a in arrivals_batched)
        return {"n_circuits": n_circuits, "sends_per_circuit": sends,
                "arrival_groups": sends // group,
                "pushes_per_segment": pushes_per_segment,
                "pushes_batched": pushes_batched,
                "push_reduction_x": round(
                    pushes_per_segment / pushes_batched, 1),
                "arrivals_identical": True,
                "per_segment_wall_s": round(per_segment_wall_s, 4),
                "batched_wall_s": round(batched_wall_s, 4),
                "sim_ms": round(sim.now_ms, 3)}

    return _measure(run)


# ----------------------------------------------------------------------
# Scenario 5: span-tracing overhead — the same session, off vs on
# ----------------------------------------------------------------------

def bench_span_overhead(smoke: bool = False, trace_out=None) -> dict:
    from repro.perf.spans import enable_tracing

    n_hosts = 5 if smoke else 20
    rounds = 1 if smoke else 3

    def session(traced: bool):
        world = World(seed=29)
        names = ["h%02d" % i for i in range(n_hosts)]
        for name in names:
            world.add_host(name, HostClass.VAX_780)
        world.ethernet()
        world.add_user("lfc", 1001)
        install(world)
        world.write_recovery_file("lfc", [names[0]])
        tracer = enable_tracing(world.sim) if traced else None
        start = time.perf_counter()
        origin = PPMClient(world, "lfc", names[0]).connect()
        for name in names[1:]:
            origin.create_process("job-%s" % name, host=name,
                                  program=spinner_spec(None))
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
# Scenario 6: doctor sweep — the ops layer's read-only guarantee
# ----------------------------------------------------------------------

def bench_doctor_sweep(smoke: bool = False) -> dict:
    from repro.ops import probe_world, run_doctor

    n_hosts = 6 if smoke else 40
    sweeps = 20 if smoke else 200
    world = World(seed=31)
    names = ["h%02d" % i for i in range(n_hosts)]
    for name in names:
        world.add_host(name, HostClass.VAX_780)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    world.write_recovery_file("lfc", [names[0]])
    origin = PPMClient(world, "lfc", names[0]).connect()
    for name in names[1:]:
        origin.create_process("job-%s" % name, host=name,
                              program=spinner_spec(None))
    world.run_for(2_000.0)

    def run() -> dict:
        # The contract OPERATIONS.md sells: probing is pure observation.
        # Any event the probe scheduled or any clock tick it consumed
        # would shift every sim_ms after it — so assert both are frozen.
        sim_before = world.sim.now_ms
        events_before = PERF.snapshot()["events_scheduled"]
        healthy = 0
        checks_run = 0
        for _ in range(sweeps):
            report = run_doctor(probe_world(world))
            healthy += report.ok
            checks_run += len(report.results)
        assert world.sim.now_ms == sim_before, \
            "doctor sweep advanced the simulated clock"
        assert PERF.snapshot()["events_scheduled"] == events_before, \
            "doctor sweep scheduled simulator events"
        assert healthy == sweeps
        return {"n_hosts": n_hosts, "sweeps": sweeps,
                "checks_run": checks_run,
                "doctor_runs": PERF.snapshot()["doctor_runs"],
                "sim_ms": round(world.sim.now_ms, 3)}

    return _measure(run)


def bench_watch_steady(smoke: bool = False) -> dict:
    from repro.ops import Watcher, probe_world, run_doctor
    from repro.perf import MetricsSampler

    n_hosts = 6 if smoke else 40
    sweeps = 20 if smoke else 200
    world = World(seed=31)
    names = ["h%02d" % i for i in range(n_hosts)]
    for name in names:
        world.add_host(name, HostClass.VAX_780)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    world.write_recovery_file("lfc", [names[0]])
    origin = PPMClient(world, "lfc", names[0]).connect()
    for name in names[1:]:
        origin.create_process("job-%s" % name, host=name,
                              program=spinner_spec(None))
    world.run_for(2_000.0)

    def run() -> dict:
        # The watch loop on top of the doctor's read-only contract:
        # per-sweep edge detection plus full time-series sampling must
        # add zero simulator perturbation (frozen clock, zero events)
        # and bounded memory (every ring capped at its capacity).
        sampler = MetricsSampler(capacity=64)
        watcher = Watcher(sampler=sampler)
        sim_before = world.sim.now_ms
        events_before = PERF.snapshot()["events_scheduled"]
        for _ in range(sweeps):
            view = probe_world(world)
            watcher.feed(run_doctor(view), view.probed_at_ms)
        assert world.sim.now_ms == sim_before, \
            "watch sweep advanced the simulated clock"
        assert PERF.snapshot()["events_scheduled"] == events_before, \
            "watch sweep scheduled simulator events"
        counters = PERF.snapshot()
        assert counters["watch_sweeps"] == sweeps
        assert counters["watch_samples"] == sweeps
        assert counters["watch_edges"] == 0, \
            "a healthy steady state has no incident edges"
        assert all(len(series) <= 64
                   for series in sampler.series.values()), \
            "ring buffers must stay within their capacity"
        return {"n_hosts": n_hosts, "sweeps": sweeps,
                "watch_sweeps": counters["watch_sweeps"],
                "watch_samples": counters["watch_samples"],
                "series_tracked": len(sampler.series),
                "sim_ms": round(world.sim.now_ms, 3)}

    return _measure(run)


# ----------------------------------------------------------------------
# Scenarios 8-10: LOCATE at scale and multi-tenancy (scenarios.py)
# ----------------------------------------------------------------------

def bench_locate(smoke: bool = False) -> dict:
    from .scenarios import locate_scenario

    return _measure(locate_scenario(
        n_hosts=24 if smoke else 200,
        mesh_locates=2,                     # each refloods the mesh
        sparse_locates=5 if smoke else 8))  # cached, nearly free


def bench_locate_500(smoke: bool = False) -> dict:
    from .scenarios import locate_scenario

    return _measure(locate_scenario(
        n_hosts=48 if smoke else 500,
        sparse_locates=5 if smoke else 8,
        policies=("sparse",),
        hubs=4 if smoke else 10))


def bench_multitenant(smoke: bool = False) -> dict:
    from .scenarios import multitenant_scenario

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
    "encode_throughput": bench_encode,
    "broadcast_flood": bench_broadcast_flood,
    "snapshot_40_hosts": bench_snapshot,
    "stream_flood": bench_stream_flood,
    "span_overhead": bench_span_overhead,
    "doctor_sweep": bench_doctor_sweep,
    "watch_steady": bench_watch_steady,
    "locate_200_hosts": bench_locate,
    "locate_500_hosts": bench_locate_500,
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


# ----------------------------------------------------------------------
# Wall-clock history (regression guard for --smoke)
# ----------------------------------------------------------------------

#: Entries kept per scenario; older measurements roll off.
_HISTORY_LIMIT = 20
#: A smoke scenario this fast is all noise; never flag it.
_HISTORY_FLOOR_S = 0.5


def update_wall_history(path: str, mode: str, results: dict,
                        enforce: bool) -> list:
    """Append each scenario's wall time to the history file and return
    regressions: scenarios slower than 2x their best recorded time.

    Histories are keyed by mode (smoke/full).  Only ``enforce``
    (smoke) runs report regressions, and only above an absolute floor,
    so timing noise on sub-second scenarios never fails a build.
    """
    data = {"schema": 1, "modes": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    bucket = data.setdefault("modes", {}).setdefault(mode, {})
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    regressions = []
    for name, metrics in results.items():
        history = bucket.setdefault(name, [])
        wall_s = metrics["wall_s"]
        prior = [entry["wall_s"] for entry in history]
        if enforce and prior:
            best = min(prior)
            if wall_s > 2.0 * best and wall_s > _HISTORY_FLOOR_S:
                regressions.append((name, wall_s, best))
        history.append({"wall_s": wall_s, "at": stamp})
        del history[:-_HISTORY_LIMIT]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return regressions


def merge_into(path: str, label: str, results: dict) -> None:
    data = {"schema": 1, "benchmarks": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    benches = data.setdefault("benchmarks", {})
    for name, metrics in results.items():
        benches.setdefault(name, {})[label] = metrics
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; assert completion, not speed")
    parser.add_argument("--label", default="after",
                        help="label to file results under (before/after)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_core.json"),
                        help="JSON trajectory file to merge into")
    parser.add_argument("--no-write", action="store_true",
                        help="run and print without touching the file")
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
    if not args.no_write and not args.smoke:
        merge_into(args.output, args.label, results)
        print("merged under label %r into %s" % (args.label, args.output))
    if not args.no_write:
        regressions = update_wall_history(
            os.path.join(REPO_ROOT, "wall_history.json"),
            "smoke" if args.smoke else "full", results,
            enforce=args.smoke)
        if regressions:
            for key, wall_s, best in regressions:
                print("WALL-CLOCK REGRESSION: %s took %.3fs, more than "
                      "2x its best recorded %.3fs" % (key, wall_s, best))
            return 3
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
