"""Tests for the gather layer's record merge (repro.core.gather): the
merged output is the runs' concatenation in gpid order, ties kept in
arrival order, and the bookkeeping (paths, missing order, perf
counters) is exact."""

from repro import PPMClient, spinner_spec
from repro.core.gather import GatherEngine, GatherOp, _record_key
from repro.perf import PERF

from .conftest import build_world, lpm_of


def _lpm():
    world = build_world()
    PPMClient(world, "lfc", "alpha").connect()
    return world, lpm_of(world, "alpha")


def test_kway_merge_equals_sorted_concatenation():
    _world, alpha = _lpm()
    engine = GatherEngine(alpha)
    results = []
    op = GatherOp("snapshot", results.append)
    op.paths[alpha.name] = [alpha.name]
    op.local_run = [{"host": "alpha", "pid": p} for p in (3, 9, 12)]
    op.runs = [
        [{"host": "beta", "pid": p} for p in (1, 2, 50)],
        [{"host": "delta", "pid": 7}, {"host": "zeta", "pid": 1}],
        [],
        [{"host": "beta", "pid": 51}, {"host": "gamma", "pid": 4}],
        [{"host": "beta", "pid": 2, "late": True}],
    ]
    engine._finish(op)
    (result,) = results
    assert result["ok"]
    records = result["records"]
    assert [(r["host"], r["pid"]) for r in records] == [
        ("alpha", 3), ("alpha", 9), ("alpha", 12),
        ("beta", 1), ("beta", 2), ("beta", 2), ("beta", 50), ("beta", 51),
        ("delta", 7), ("gamma", 4), ("zeta", 1)]
    # Equal gpids keep arrival order: the earlier run's record first.
    assert [r.get("late", False) for r in records[4:6]] == [False, True]


def test_merge_counts_work_in_perf_counters():
    _world, alpha = _lpm()
    engine = GatherEngine(alpha)
    op = GatherOp("snapshot", lambda result: None)
    op.paths[alpha.name] = [alpha.name]
    op.local_run = [{"host": "alpha", "pid": 1}]
    op.runs = [[{"host": "beta", "pid": 2}, {"host": "beta", "pid": 3}]]
    PERF.reset()
    engine._finish(op)
    assert PERF.gather_merges == 1
    assert PERF.gather_records_merged == 3
    # Finishing is idempotent: a late child reply cannot double-count.
    engine._finish(op)
    assert PERF.gather_merges == 1


def test_missing_concatenation_order_preserved():
    _world, alpha = _lpm()
    engine = GatherEngine(alpha)
    results = []
    op = GatherOp("snapshot", results.append)
    op.paths[alpha.name] = [alpha.name]
    op.missing = ["timedout-1", "timedout-2"]
    op.child_missing = ["deep-1", "deep-2"]
    engine._finish(op)
    # Own timeouts first, then children's reports in merge order —
    # exactly the old accumulation order.
    assert results[0]["missing"] == \
        ["timedout-1", "timedout-2", "deep-1", "deep-2"]


def test_end_to_end_gather_is_gpid_sorted():
    world = build_world()
    client = PPMClient(world, "lfc", "alpha").connect()
    for host in ("beta", "gamma", "delta"):
        client.create_process("job-%s" % host, host=host,
                              program=spinner_spec(None))
    alpha = lpm_of(world, "alpha")
    results = []
    PERF.reset()
    alpha.gather.start("snapshot", results.append)
    world.run_until_true(lambda: bool(results), timeout_ms=60_000.0)
    result = results[0]
    assert result["ok"] and result["missing"] == []
    records = result["records"]
    assert {r["host"] for r in records} == {"beta", "gamma", "delta"}
    assert records == sorted(records, key=_record_key)
    # Every LPM in the gather tree performed exactly one merge.
    assert PERF.gather_merges == 4
    assert PERF.gather_records_merged >= len(records)
    # The assembled paths taught alpha a path entry per answering host.
    assert set(result["paths"]) == {"alpha", "beta", "gamma", "delta"}
