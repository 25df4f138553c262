"""The per-layer ladder: which number is read from which span.

``LAYER_METRICS`` is the one list of per-layer metric names; the traced
run reports every one of them on every workload (0 where the layer is
not on the path — that a layer is *not* touched is the prediction the
README's table makes, and a 0 is how the run confirms it).
``BENCHMARK.json`` lists the same names; ``--selfcheck`` compares.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .shims import BUCKET_NS, OP_SPAN

#: How a metric is read from a span's window totals
#: ``[calls, self_ns, total_ns, value]``, per op.
_READERS = {
    "calls": lambda t, ops: t[0] / ops,
    "self_us": lambda t, ops: t[1] / 1e3 / ops,
    "self_ms": lambda t, ops: t[1] / 1e6 / ops,
    "wait_ms": lambda t, ops: t[2] / 1e6 / ops,
    "value": lambda t, ops: t[3] / ops,
    "ms_per_call": lambda t, ops: t[2] / 1e6 / t[0] if t[0] else 0.0,
}

#: (metric, unit, source, reader).  Source is a span name from
#: ``shims.SHIMS``, or "PERF" (reader names a ``repro.perf`` counter,
#: read in the load generator), or "extra" (the workload supplies it).
LAYER_METRICS = [
    # core.client
    ("client.call.calls_per_op", "count", "client.call", "calls"),
    ("client.call.self_us_per_op", "us", "client.call", "self_us"),
    ("client.connect.self_us_per_op", "us", "client.connect", "self_us"),
    # realnet.fabric — pump idle and connect are waits, not CPU
    ("fabric.pump.pumps_per_op", "count", "fabric.pump", "calls"),
    ("fabric.pump.idle_ms_per_op", "ms", "fabric.pump", "self_ms"),
    ("fabric.connect.calls_per_op", "count", "fabric.connect", "calls"),
    ("fabric.connect.ms_per_call", "ms", "fabric.connect", "ms_per_call"),
    # core.wire
    ("wire.encode.calls_per_op", "count", "wire.encode", "calls"),
    ("wire.encode.self_us_per_op", "us", "wire.encode", "self_us"),
    ("wire.decode.calls_per_op", "count", "wire.decode", "calls"),
    ("wire.decode.self_us_per_op", "us", "wire.decode", "self_us"),
    ("wire.bytes_per_op", "bytes", "wire.*", "value"),
    # realnet.framing
    ("framing.encode_frame.calls_per_op", "count", "framing.encode_frame",
     "calls"),
    ("framing.encode_frame.self_us_per_op", "us", "framing.encode_frame",
     "self_us"),
    ("framing.feed.calls_per_op", "count", "framing.feed", "calls"),
    ("framing.feed.self_us_per_op", "us", "framing.feed", "self_us"),
    ("framing.partial_reads_per_op", "count", "framing.feed", "value"),
    # realnet.node
    ("node.dispatch.calls_per_op", "count", "node.dispatch", "calls"),
    ("node.dispatch.self_us_per_op", "us", "node.dispatch", "self_us"),
    ("node.accept.calls_per_op", "count", "node.accept", "calls"),
    ("node.accept.self_us_per_op", "us", "node.accept", "self_us"),
    # realnet.registry
    ("registry.read.calls_per_op", "count", "registry.read", "calls"),
    ("registry.read.self_us_per_op", "us", "registry.read", "self_us"),
    # realnet.pmd
    ("pmd.bootstrap.calls_per_op", "count", "pmd.bootstrap", "calls"),
    ("pmd.bootstrap.self_us_per_op", "us", "pmd.bootstrap", "self_us"),
    ("pmd.lpm_created_per_op", "count", "pmd.lpm_create", "calls"),
    # realnet.lpm
    ("lpm.tool.calls_per_op", "count", "lpm.tool", "calls"),
    ("lpm.tool.self_us_per_op", "us", "lpm.tool", "self_us"),
    ("lpm.sibling.requests_per_op", "count", "lpm.sibling", "calls"),
    ("lpm.sibling.wait_ms_per_op", "ms", "lpm.sibling", "wait_ms"),
    ("lpm.gather.records_per_op", "count", "lpm.gather", "value"),
    # localos.backend
    ("localos.spawn.calls_per_op", "count", "localos.spawn", "calls"),
    ("localos.spawn.self_us_per_op", "us", "localos.spawn", "self_us"),
    ("localos.control.calls_per_op", "count", "localos.control", "calls"),
    ("localos.control.self_us_per_op", "us", "localos.control", "self_us"),
    ("localos.state_of.calls_per_op", "count", "localos.state_of", "calls"),
    ("localos.state_of.self_us_per_op", "us", "localos.state_of", "self_us"),
    ("localos.snapshot.self_us_per_op", "us", "localos.snapshot", "self_us"),
    ("localos.refresh.self_us_per_op", "us", "localos.refresh", "self_us"),
    # localos.procfs
    ("procfs.read_stat.calls_per_op", "count", "procfs.read_stat", "calls"),
    ("procfs.read_stat.self_us_per_op", "us", "procfs.read_stat", "self_us"),
    ("procfs.children_map.calls_per_op", "count", "procfs.children_map",
     "calls"),
    ("procfs.children_map.self_us_per_op", "us", "procfs.children_map",
     "self_us"),
    # unixsim.world (the benchmark's own build_world)
    ("world.build.ms_per_op", "ms", "world.build", "self_ms"),
    # netsim.events / simulator
    ("events.scheduled_per_op", "count", "PERF", "events_scheduled"),
    ("events.run_per_op", "count", "PERF", "events_run"),
    ("events.cancelled_per_op", "count", "PERF", "events_cancelled"),
    ("simulator.run.self_ms_per_op", "ms", "simulator.run", "self_ms"),
    ("sim.ms_per_op", "ms", "extra", "sim.ms_per_op"),
    # netsim.stream / network
    ("stream.segments_per_op", "count", "PERF", "stream_segments_drained"),
    ("stream.deliveries_per_op", "count", "PERF",
     "stream_batched_deliveries"),
    ("network.find_path.calls_per_op", "count", "network.find_path",
     "calls"),
    ("network.find_path.self_us_per_op", "us", "network.find_path",
     "self_us"),
    # core.lpm / rpc / router / toolservice (the simulator's LPM)
    ("sim_lpm.handle.calls_per_op", "count", "sim_lpm.handle", "calls"),
    ("sim_lpm.handle.self_us_per_op", "us", "sim_lpm.handle", "self_us"),
    ("rpc.requests_per_op", "count", "rpc.request", "calls"),
    ("router.route.calls_per_op", "count", "router.route", "calls"),
    ("toolservice.serve.self_us_per_op", "us", "toolservice.serve",
     "self_us"),
    # core.gather / broadcast
    ("gather.merges_per_op", "count", "PERF", "gather_merges"),
    ("gather.records_per_op", "count", "PERF", "gather_records_merged"),
    ("gather.merge.self_us_per_op", "us", "gather.merge", "self_us"),
    ("broadcast.dedup_checks_per_op", "count", "PERF", "dedup_checks"),
    # unixsim.kernel
    ("kernel.spawn.calls_per_op", "count", "kernel.spawn", "calls"),
    ("kernel.spawn.self_us_per_op", "us", "kernel.spawn", "self_us"),
    ("kernel.signal.calls_per_op", "count", "kernel.signal", "calls"),
    ("kernel.signal.self_us_per_op", "us", "kernel.signal", "self_us"),
    # the traced run itself
    ("trace.ops_per_s", "1/s", "extra", "trace.ops_per_s"),
]


def window_totals(exports: Iterable[dict], start_ns: int,
                  end_ns: int) -> Dict[str, List[float]]:
    """Sum, over all processes, the buckets that lie wholly inside the
    window: span name -> ``[calls, self_ns, total_ns, value]``."""
    first = -(-start_ns // BUCKET_NS)  # ceiling
    last = end_ns // BUCKET_NS         # exclusive
    totals: Dict[str, List[float]] = {}
    for export in exports:
        for name, bucket, *stats in export["buckets"]:
            if first <= bucket < last:
                into = totals.setdefault(name, [0, 0, 0, 0])
                for index, amount in enumerate(stats):
                    into[index] += amount
    return totals


def layer_metrics(totals: Dict[str, Sequence[float]],
                  perf_per_op: Dict[str, float],
                  extras: Dict[str, float]) -> Dict[str, dict]:
    """Every ``LAYER_METRICS`` entry as ``{"value", "unit"}``."""
    ops = totals[OP_SPAN][0]
    zero = [0, 0, 0, 0]
    metrics = {}
    for name, unit, source, reader in LAYER_METRICS:
        if source == "PERF":
            value = perf_per_op.get(reader, 0.0)
        elif source == "extra":
            value = extras.get(reader, 0.0)
        elif source == "wire.*":
            value = sum(totals.get(span, zero)[3]
                        for span in ("wire.encode", "wire.decode")) / ops
        else:
            value = _READERS[reader](totals.get(source, zero), ops)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
