"""Tests for the always-on perf-counter layer (`repro.perf`)."""

import importlib.util
import os

from repro import PersonalProcessManager, spinner_spec
from repro.perf import PERF, PerfCounters

from .conftest import build_world


def test_reset_snapshot_and_delta():
    counters = PerfCounters()
    counters.encodes_performed += 3
    counters.dedup_checks += 1
    snap = counters.snapshot()
    assert snap["encodes_performed"] == 3
    counters.encodes_performed += 2
    delta = counters.delta_since(snap)
    assert delta["encodes_performed"] == 2
    assert delta["dedup_checks"] == 0
    counters.reset()
    assert counters.snapshot()["encodes_performed"] == 0


def test_session_work_shows_up_in_perf_stats():
    world = build_world()
    manager = PersonalProcessManager(world, "lfc", "alpha",
                                     recovery_hosts=["alpha"]).start()
    PERF.reset()
    manager.create_process("job", host="beta",
                           program=spinner_spec(None))
    forest = manager.snapshot(prune=False)
    assert len(forest) == 1
    stats = manager.perf_stats()
    # The gather crossed the wire: something was sized (never encoded:
    # the simulator builds no frames), the broadcast stamp was checked,
    # and the simulator ran events.
    assert stats["size_calls"] > 0
    assert stats["encodes_performed"] == 0
    assert stats["dedup_checks"] > 0
    assert stats["events_run"] > 0
    assert stats["sim_events_run"] >= stats["events_run"]
    assert stats["sim_now_ms"] == world.sim.now_ms
    assert "sim_queue_compactions" in stats


def test_verify_cache_absorbs_repeat_stamp_checks():
    from repro.ids import BroadcastId

    stamp = BroadcastId.make("alpha", 123.0, 1, "secret")
    PERF.reset()
    assert stamp.verify("secret")
    hashed_after_first = PERF.hmac_computed
    for _ in range(10):
        assert stamp.verify("secret")
    assert PERF.hmac_computed == hashed_after_first
    assert PERF.hmac_cache_hits >= 10
    # A forged signature over the same fields must not hit a cached True.
    forged = BroadcastId("alpha", 123.0, 1, "0" * 16)
    assert not forged.verify("secret")


def _load_check_counters():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = importlib.util.spec_from_file_location(
        "check_counters", os.path.join(root, "tools", "check_counters.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counter_lint_reports_a_stale_perf_md_row():
    check_counters = _load_check_counters()
    rows = "\n".join("| `%s` | something |" % name
                      for name in PerfCounters.__slots__)
    table = "| counter | counts |\n|---|---|\n%s\n" % rows
    assert check_counters.check(table) == []
    # A row for a counter the registry no longer has is stale; the
    # same name in another table (workloads, metrics) is not a row.
    stale = table + "| `events_fastpath` | gone |\n"
    assert check_counters.check(stale) == [
        "docs/PERF.md counter table documents 'events_fastpath', which "
        "is not a PerfCounters slot"]
    elsewhere = table + "\n| metric | value |\n|---|---|\n" \
        "| `events_fastpath` | 0 |\n"
    assert check_counters.check(elsewhere) == []
    # A counter dropped from the table is reported too.
    missing = table.replace("| `events_run` | something |\n", "")
    assert check_counters.check(missing) == [
        "counter 'events_run' missing from the docs/PERF.md counter table"]
