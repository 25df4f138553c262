"""Deterministic firing tests for the prebuilt operational triggers."""

import pytest

from repro.ops import install_ops_triggers, run_checks
from repro.ops.checks import (CCS_FLAP_WINDOW_MS, CCS_FLAPS,
                              MAX_DEDUP_ENTRIES, HostHealth, WorldView)
from repro.perf import PERF
from repro.tracing import TraceEventType, TraceRecorder, TriggerEngine


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_engine():
    clock = Clock()
    recorder = TraceRecorder(clock)
    engine = TriggerEngine(recorder)
    return clock, recorder, engine


@pytest.fixture(autouse=True)
def clean_counters():
    PERF.reset()
    yield
    PERF.reset()


def fired(alerts):
    return sorted(alert.name for alert in alerts)


class TestStandardSet:
    def test_install_arms_at_least_four(self):
        clock, recorder, engine = make_engine()
        install_ops_triggers(engine, dedup_size_fn=lambda: 0)
        assert len(engine.triggers) >= 4
        assert all(t.name.startswith("ops:") for t in engine.triggers)

    def test_host_down_fires_on_failure_detected(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        recorder.record(TraceEventType.FAILURE_DETECTED, host="alpha")
        assert "ops:host-down" in fired(alerts)
        assert PERF.ops_alerts_raised == 1

    def test_ccs_flap_fires_on_oscillation_in_window(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        step_ms = CCS_FLAP_WINDOW_MS / (2 * CCS_FLAPS)
        flap_types = (TraceEventType.CCS_ASSUMED,
                      TraceEventType.CCS_RELINQUISHED)
        for change in range(CCS_FLAPS):
            assert "ops:ccs-flap" not in fired(alerts)
            clock.now = change * step_ms
            recorder.record(flap_types[change % 2], host="alpha")
        assert "ops:ccs-flap" in fired(alerts)

    def test_ccs_flap_ignores_changes_outside_window(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        for step in range(CCS_FLAPS + 1):
            clock.now = step * 2 * CCS_FLAP_WINDOW_MS
            recorder.record(TraceEventType.CCS_ASSUMED, host="alpha")
        assert "ops:ccs-flap" not in fired(alerts)

    def test_dedup_blowup_fires_from_size_fn(self):
        clock, recorder, engine = make_engine()
        size = {"n": MAX_DEDUP_ENTRIES}
        alerts = install_ops_triggers(engine, dedup_size_fn=lambda: size["n"])
        recorder.record(TraceEventType.SIBLING_MESSAGE, host="alpha")
        assert "ops:dedup-cache-blowup" not in fired(alerts)
        size["n"] = MAX_DEDUP_ENTRIES + 1
        recorder.record(TraceEventType.SIBLING_MESSAGE, host="alpha")
        assert "ops:dedup-cache-blowup" in fired(alerts)

    def test_p99_regression_needs_baseline_and_samples(self):
        clock, recorder, engine = make_engine()
        summary = {"rpc_rtt": {"count": 0, "p99_ms": None}}
        alerts = install_ops_triggers(engine, summary_fn=lambda: summary,
                                      baseline={"rpc_rtt": 100.0})
        recorder.record(TraceEventType.SIBLING_MESSAGE, host="alpha")
        assert "ops:p99-regression" not in fired(alerts)
        summary["rpc_rtt"] = {"count": 20, "p99_ms": 500.0}
        recorder.record(TraceEventType.SIBLING_MESSAGE, host="alpha")
        assert "ops:p99-regression" in fired(alerts)
        assert "500.0ms" in alerts[0].detail

    def test_zero_baseline_neither_fails_the_check_nor_fires(self):
        # The check and the trigger share one rule: a baseline of 0
        # judges nothing, however slow the op class is.
        clock, recorder, engine = make_engine()
        summary = {"rpc_rtt": {"count": 20, "p99_ms": 500.0}}
        baseline = {"rpc_rtt": 0.0}
        alerts = install_ops_triggers(engine, summary_fn=lambda: summary,
                                      baseline=baseline)
        recorder.record(TraceEventType.SIBLING_MESSAGE, host="alpha")
        assert "ops:p99-regression" not in fired(alerts)
        view = WorldView(backend="netsim", latency=summary)
        result = next(r for r in run_checks(view, baseline=baseline).results
                      if r.name == "latency-slo")
        assert result.ok

    def test_p99_trigger_not_installed_without_baseline(self):
        clock, recorder, engine = make_engine()
        install_ops_triggers(engine, summary_fn=lambda: {})
        names = [t.name for t in engine.triggers]
        assert "ops:p99-regression" not in names


class TestIdempotentInstall:
    def test_arming_twice_does_not_double_register(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        names_once = sorted(t.name for t in engine.triggers)
        assert install_ops_triggers(engine, alerts=alerts) is alerts
        assert sorted(t.name for t in engine.triggers) == names_once
        assert len(names_once) == len(set(names_once))

    def test_rearming_does_not_double_latch(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        install_ops_triggers(engine, alerts=alerts)
        recorder.record(TraceEventType.FAILURE_DETECTED, host="alpha")
        assert fired(alerts).count("ops:host-down") == 1
        assert PERF.ops_alerts_raised == 1

    def test_second_install_adds_only_missing_triggers(self):
        # A first, minimal install; the second brings the dedup
        # trigger its size_fn enables — and nothing else twice.
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        before = sorted(t.name for t in engine.triggers)
        install_ops_triggers(engine, alerts=alerts,
                             dedup_size_fn=lambda: 0)
        after = sorted(t.name for t in engine.triggers)
        assert after == sorted(before + ["ops:dedup-cache-blowup"])


class TestWatchOnsetTrigger:
    def test_onset_edges_latch_per_incident(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        recorder.record(TraceEventType.WATCH_EDGE, host="",
                        check="daemon-liveness", edge="onset",
                        entities=["gamma"], exit_code=10)
        recorder.record(TraceEventType.WATCH_EDGE, host="",
                        check="daemon-liveness", edge="clear",
                        entities=["gamma"], exit_code=0)
        recorder.record(TraceEventType.WATCH_EDGE, host="",
                        check="lpm-liveness", edge="onset",
                        entities=["lfc@beta"], exit_code=11)
        onsets = [a for a in alerts if a.name == "ops:watch-onset"]
        assert len(onsets) == 2, "each onset is a distinct incident"
        assert "daemon-liveness" in onsets[0].detail
        assert "gamma" in onsets[0].detail
        assert "lpm-liveness" in onsets[1].detail


class TestLatching:
    def test_alerts_latch_once(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        for _ in range(3):
            recorder.record(TraceEventType.FAILURE_DETECTED, host="a")
        assert fired(alerts).count("ops:host-down") == 1
        assert PERF.ops_alerts_raised == 1

    def test_alerts_fail_the_doctor_check(self):
        clock, recorder, engine = make_engine()
        alerts = install_ops_triggers(engine)
        recorder.record(TraceEventType.FAILURE_DETECTED, host="alpha")
        view = WorldView(
            backend="netsim", expected_hosts=("alpha",),
            hosts={"alpha": HostHealth("alpha", up=True, daemon=True)},
            alerts=list(alerts))
        report = run_checks(view)
        assert [r.name for r in report.failing] == ["trigger-alerts"]
        assert "ops:host-down" in report.failing[0].detail
