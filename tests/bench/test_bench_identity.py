"""The runner's world-scale scenario repeats exactly, and
``tools/check_bench.py`` reports a row that stopped matching."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

workloads = pytest.importorskip("benchmarks.workloads")

from repro.perf import PERF  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_measured(scenario, **kwargs):
    """One build + measured phase: ``(result, counters)``.

    The stamp-verification memo (``repro.ids``) is process-global, so a
    repeat run finds it warm: how the verifications split between
    computed and memo hits depends on what ran before, their sum does
    not.
    """
    run = scenario(**kwargs)
    PERF.reset()
    try:
        result, counters = run(), PERF.snapshot()
    finally:
        PERF.reset()
    counters["hmac_verifies"] = (counters.pop("hmac_computed")
                                 + counters.pop("hmac_cache_hits"))
    return result, counters


@pytest.mark.parametrize("scenario, kwargs", [
    (workloads.multitenant_scenario,
     dict(n_users=8, n_hosts=6, gateways=2, fanout=3,
          horizon_ms=20_000.0)),
], ids=["multitenant"])
def test_scenario_is_deterministic_run_to_run(scenario, kwargs):
    first_result, first_counters = run_measured(scenario, **kwargs)
    second_result, second_counters = run_measured(scenario, **kwargs)
    assert first_result == second_result
    assert first_counters == second_counters
    assert first_counters["events_run"] > 0


def load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", os.path.join(REPO_ROOT, "tools", "check_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_bench_reports_each_doctored_key():
    differences = load_check_bench().differences
    actual = {"sim_ms_private": 1234.5, "events_run": 10,
              "links_private": 4, "push_reduction_x": 9.8,
              "slo_private": {"login": {"count": 1}}}
    assert differences("demo", dict(actual), actual) == []
    doctored = dict(actual, sim_ms_private=1234.6, events_run=11,
                    push_reduction_x=1.0, only_recorded=3)
    assert differences("demo", doctored, actual) == [
        "demo.events_run: recorded 11, now 10",
        "demo.only_recorded: recorded 3, now nothing",
        "demo.push_reduction_x: recorded 1.0, now 9.8",
        "demo.sim_ms_private: recorded 1234.6, now 1234.5",
    ]


def test_differences_reach_every_simulated_value():
    differences = load_check_bench().differences
    recorded = {"rpc_rtt_p95_ms": 1514.0, "sim_ms": 190000.0,
                "slo_private": {"login": {"count": 50, "p50_ms": 272.0}}}
    now = {"rpc_rtt_p95_ms": 1515.0, "sim_ms": 190000,
           "slo_private": {"login": {"count": 50, "p50_ms": 272.5}},
           "spans_kept": 465}
    assert differences("span", recorded, now) == [
        "span.rpc_rtt_p95_ms: recorded 1514.0, now 1515.0",
        "span.sim_ms: recorded 190000.0, now 190000",
        "span.slo_private.login.p50_ms: recorded 272.0, now 272.5",
        "span.spans_kept: recorded nothing, now 465",
    ]


def test_record_writes_one_row_per_scenario_and_names_each_change(tmp_path):
    check_bench = load_check_bench()
    path = str(tmp_path / "BENCH_core.json")
    first = {"flood": {"events_run": 10, "slo": {"p50_ms": 1.0}}}
    assert check_bench.record(path, first) == [
        "flood: recorded nothing, now {'events_run': 10, "
        "'slo': {'p50_ms': 1.0}}"]
    assert check_bench.load_rows(path) == first
    second = {"flood": {"events_run": 11, "slo": {"p50_ms": 1.0}}}
    assert check_bench.record(path, second) == [
        "flood.events_run: recorded 10, now 11"]
    assert check_bench.record(path, second) == []
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == {"schema": 2, "benchmarks": second}


def test_committed_rows_match_a_fresh_run():
    # A fresh interpreter: in this one the stamp-verification memo is
    # warm, which moves verifications from hmac_computed to
    # hmac_cache_hits (see run_measured).
    done = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_bench.py")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "bench: ok (5 scenarios" in done.stdout
