"""Tests for the causal span-tracing layer.

Unit tests drive the tracer against a fake clock; the end-to-end tests
run a real simulated session and assert the property the layer exists
for — one tool request becomes one *connected* trace spanning hosts.
"""

import json

import pytest

from repro import HostClass, PersonalProcessManager, World
from repro.core.messages import Message, MsgKind
from repro.core.wire import decode, encode
from repro.perf import (
    OP_CLASSES,
    SpanTracer,
    disable_tracing,
    enable_tracing,
)


class FakeSim:
    def __init__(self):
        self.now_ms = 0.0
        self.tracer = None


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------

def test_start_finish_records_simulated_duration():
    sim = FakeSim()
    tracer = SpanTracer(sim)
    span = tracer.start("rpc:control", host="alpha", cat="rpc")
    sim.now_ms = 12.5
    duration = tracer.finish(span, op="rpc_rtt", outcome="ok")
    assert duration == 12.5
    assert span.end_ms == 12.5
    assert span.duration_ms == 12.5
    assert span.args["outcome"] == "ok"
    assert tracer.histograms["rpc_rtt"].count == 1
    assert tracer.spans == [span]


def test_parent_context_joins_the_same_trace():
    tracer = SpanTracer(FakeSim())
    root = tracer.start("tool:snapshot", host="alpha", cat="tool")
    child = tracer.start("serve:snapshot", host="beta",
                         parent=root.ctx(), cat="serve")
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert root.parent_id is None
    # A parentless span starts a fresh trace.
    other = tracer.start("tool:rstats", host="alpha", cat="tool")
    assert other.trace_id != root.trace_id


def test_context_is_json_friendly():
    tracer = SpanTracer(FakeSim())
    span = tracer.start("x", host="a")
    ctx = span.ctx()
    assert ctx == [span.trace_id, span.span_id]
    assert json.loads(json.dumps(ctx)) == ctx


def test_instant_is_zero_duration_and_retained():
    sim = FakeSim()
    sim.now_ms = 3.0
    tracer = SpanTracer(sim)
    hop = tracer.instant("hop:locate", host="beta", cat="route",
                         next_hop="gamma")
    assert hop.instant
    assert hop.start_ms == hop.end_ms == 3.0
    assert hop.args == {"next_hop": "gamma"}
    assert tracer.spans == [hop]


def test_traces_group_by_trace_id_and_hosts_sort():
    sim = FakeSim()
    tracer = SpanTracer(sim)
    a = tracer.start("a", host="zeta")
    tracer.finish(a)
    b = tracer.start("b", host="alpha", parent=a.ctx())
    tracer.finish(b)
    c = tracer.start("c", host="alpha")
    tracer.finish(c)
    grouped = tracer.traces()
    assert set(grouped) == {a.trace_id, c.trace_id}
    assert grouped[a.trace_id] == [a, b]
    assert tracer.hosts() == ["alpha", "zeta"]


def test_max_spans_drops_overflow_instead_of_growing():
    sim = FakeSim()
    tracer = SpanTracer(sim, max_spans=2)
    for _ in range(5):
        tracer.instant("tick", host="a")
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3


def test_unknown_op_class_is_an_error():
    tracer = SpanTracer(FakeSim())
    with pytest.raises(KeyError):
        tracer.record("rpc_rt", 1.0)  # typo'd class must not pass silently


def test_latency_summary_covers_every_op_class():
    tracer = SpanTracer(FakeSim())
    summary = tracer.latency_summary()
    assert set(summary) == set(OP_CLASSES)
    assert all(block["count"] == 0 for block in summary.values())


def test_enable_disable_attach_and_detach():
    sim = FakeSim()
    tracer = enable_tracing(sim, max_spans=10)
    assert sim.tracer is tracer
    assert tracer.max_spans == 10
    disable_tracing(sim)
    assert sim.tracer is None


# ----------------------------------------------------------------------
# Wire propagation: absent when off, carried when on
# ----------------------------------------------------------------------

def _message(trace=None):
    return Message(kind=MsgKind.CONTROL, req_id=7, origin="alpha",
                   user="lfc", payload={"pid": 5}, trace=trace)


def test_trace_field_omitted_from_wire_when_none():
    fields = json.loads(encode(_message()).decode("utf-8"))
    assert "trace" not in fields


def test_trace_field_rides_the_wire_and_round_trips():
    message = _message(trace=[3, 9])
    fields = json.loads(encode(message).decode("utf-8"))
    assert fields["trace"] == [3, 9]
    assert decode(encode(message)).trace == [3, 9]
    assert decode(encode(_message())).trace is None


def test_assigning_trace_after_construction_invalidates_encode_cache():
    # Instrumentation sets .trace after the Message is built, so the
    # next encode must carry it.
    message = _message()
    before = encode(message)
    message.trace = [1, 2]
    after = encode(message)
    assert before != after
    assert json.loads(after.decode("utf-8"))["trace"] == [1, 2]


# ----------------------------------------------------------------------
# End-to-end: one tool request, one connected cross-host trace
# ----------------------------------------------------------------------

def traced_session(seed=11):
    world = World(seed=seed)
    world.add_host("alpha", HostClass.VAX_780)
    world.add_host("beta", HostClass.VAX_750)
    world.add_host("gamma", HostClass.SUN_2)
    world.ethernet()
    world.add_user("lfc", uid=1001)
    ppm = PersonalProcessManager(world, "lfc", "alpha",
                                 recovery_hosts=["alpha", "beta"])
    tracer = ppm.enable_span_tracing()
    ppm.start()
    return world, ppm, tracer


def assert_connected(trace_spans):
    """Every non-root span's parent is a span of the same trace."""
    ids = {span.span_id for span in trace_spans}
    for span in trace_spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, span


def test_snapshot_yields_one_connected_multi_host_trace():
    world, ppm, tracer = traced_session()
    root = ppm.create_process("coordinator")
    ppm.create_process("solver", host="beta", parent=root)
    before = len(tracer.spans)
    ppm.snapshot()
    new = [s for s in tracer.spans[before:]]
    tool_roots = [s for s in new
                  if s.cat == "tool" and s.parent_id is None]
    assert len(tool_roots) == 1
    trace_id = tool_roots[0].trace_id
    trace_spans = [s for s in new if s.trace_id == trace_id]
    assert {s.host for s in trace_spans} >= {"alpha", "beta"}
    assert_connected(trace_spans)
    cats = {s.cat for s in trace_spans}
    assert {"tool", "serve", "gather", "rpc", "xport"} <= cats


def test_every_retained_trace_is_connected():
    world, ppm, tracer = traced_session()
    root = ppm.create_process("coordinator")
    remote = ppm.create_process("solver", host="gamma", parent=root)
    ppm.snapshot()
    world.run_for(1_000.0)
    ppm.rstats_report()
    for trace_spans in tracer.traces().values():
        assert_connected(trace_spans)
    assert tracer.dropped == 0


def test_histograms_populate_for_key_op_classes():
    world, ppm, tracer = traced_session()
    root = ppm.create_process("coordinator")
    remote = ppm.create_process("solver", host="beta", parent=root)
    ppm.snapshot()
    # The hosts are direct siblings, so force a LOCATE flood to
    # exercise broadcast_settle the way a cold route would.
    lpm = world.lpms[("alpha", "lfc")]
    lpm.locate(remote.host, remote.pid, lambda reply: None)
    world.run_for(2_000.0)
    for op in ("tool_call", "rpc_rtt", "gather_complete",
               "broadcast_settle"):
        assert tracer.histograms[op].count >= 1, op


def test_perf_stats_reports_percentiles_only_when_traced():
    world, ppm, tracer = traced_session()
    ppm.create_process("job")
    ppm.snapshot()
    stats = ppm.perf_stats()
    assert stats["spans_kept"] == len(tracer.spans)
    assert stats["spans_dropped"] == 0
    latency = stats["latency_ms"]
    assert set(latency) == set(OP_CLASSES)
    block = latency["tool_call"]
    assert block["count"] >= 2
    assert block["p50_ms"] <= block["p95_ms"] <= block["p99_ms"]
    disable_tracing(world.sim)
    assert "latency_ms" not in ppm.perf_stats()


def test_enable_span_tracing_is_idempotent():
    world, ppm, tracer = traced_session()
    assert ppm.enable_span_tracing() is tracer
    assert ppm.enable_span_tracing(max_spans=5) is tracer  # unchanged


def test_untraced_session_retains_nothing():
    world = World(seed=11)
    world.add_host("alpha", HostClass.VAX_780)
    world.add_host("beta", HostClass.VAX_750)
    world.ethernet()
    world.add_user("lfc", uid=1001)
    ppm = PersonalProcessManager(world, "lfc", "alpha",
                                 recovery_hosts=["alpha"]).start()
    assert world.sim.tracer is None
    ppm.create_process("job", host="beta")
    ppm.snapshot()
    assert world.sim.tracer is None
