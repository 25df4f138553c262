"""The runner's world-scale scenarios repeat exactly, and
``tools/check_bench.py`` reports a row that stopped matching."""

import importlib.util
import os

import pytest

scenarios = pytest.importorskip("benchmarks.perf.scenarios")

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
    (scenarios.locate_scenario,
     dict(n_hosts=24, mesh_locates=2, sparse_locates=5)),
    (scenarios.locate_scenario,
     dict(n_hosts=48, sparse_locates=5, policies=("sparse",), hubs=4)),
    (scenarios.multitenant_scenario,
     dict(n_users=8, n_hosts=6, gateways=2, fanout=3,
          horizon_ms=20_000.0)),
], ids=["locate_mesh_vs_sparse", "locate_hub_topology", "multitenant"])
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
    actual = {"wall_s": 0.5, "sim_ms_sparse": 1234.5, "events_run": 10,
              "links_sparse": 4, "push_reduction_x": 9.8,
              "slo_shared": {"login": {"count": 1}}}
    assert differences("demo", dict(actual), actual) == []
    doctored = dict(actual, wall_s=9.9, sim_ms_sparse=1234.6, events_run=11,
                    push_reduction_x=1.0, only_recorded=3)
    assert differences("demo", doctored, actual) == [
        "demo.events_run: recorded 11, now 10",
        "demo.sim_ms_sparse: recorded 1234.6, now 1234.5",
    ]
