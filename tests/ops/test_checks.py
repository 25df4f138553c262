"""Unit tests for the backend-neutral check library.

Every check gets a healthy view and at least one broken view; the
exit-code contract (distinct codes, first-failing-in-triage-order
names the exit) is pinned here because CI scripts match on it.
"""

from repro.ops import (
    CHECK_ORDER,
    EXIT_CODES,
    HostHealth,
    LpmHealth,
    OpsAlert,
    OrphanRecord,
    WorldView,
    check_to_dict,
    offending_entities,
    run_checks,
)
from repro.ops.checks import (MAX_PENDING_REQUESTS, SLO_FACTOR,
                              SLO_MIN_COUNT)


def healthy_view(**overrides) -> WorldView:
    """A two-host netsim view that passes every check."""
    fields = dict(
        backend="netsim",
        expected_hosts=("alpha", "beta"),
        hosts={"alpha": HostHealth("alpha", up=True, daemon=True),
               "beta": HostHealth("beta", up=True, daemon=True)},
        lpms=[LpmHealth("alpha", "lfc", alive=True),
              LpmHealth("beta", "lfc", alive=True)],
    )
    fields.update(overrides)
    return WorldView(**fields)


def result_for(report, name):
    return next(r for r in report.results if r.name == name)


class TestContract:
    def test_healthy_view_exits_zero(self):
        report = run_checks(healthy_view())
        assert report.ok
        assert report.exit_code == 0
        assert [r.name for r in report.results] == list(CHECK_ORDER)

    def test_exit_codes_distinct_and_nonzero(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert all(code != 0 for code in codes)

    def test_exit_code_map_is_pinned(self):
        # Scripts match on these numbers: no code moves, and the
        # retired 13 and 14 are never handed to another check.
        assert EXIT_CODES == {
            "registry-readable": 19,
            "daemon-liveness": 10,
            "lpm-liveness": 11,
            "orphan-processes": 12,
            "rpc-anomalies": 15,
            "latency-slo": 16,
            "registry-staleness": 17,
            "trigger-alerts": 18,
        }
        assert list(CHECK_ORDER) == list(EXIT_CODES)

    def test_first_failing_check_names_the_exit(self):
        # Break both the daemon layer and the trigger layer: the exit
        # code must belong to the earlier (higher-priority) check.
        view = healthy_view(
            hosts={"alpha": HostHealth("alpha", up=False, daemon=False),
                   "beta": HostHealth("beta", up=True, daemon=True)},
            alerts=[OpsAlert("ops:host-down", "x", 1.0)])
        report = run_checks(view)
        assert not report.ok
        assert report.failing[0].name == "daemon-liveness"
        assert report.exit_code == EXIT_CODES["daemon-liveness"]

    def test_render_and_to_dict(self):
        report = run_checks(healthy_view())
        text = report.render()
        assert "doctor: healthy (exit 0)" in text
        for name in CHECK_ORDER:
            assert name in text
        as_dict = report.to_dict()
        assert as_dict["ok"] is True
        assert [c["name"] for c in as_dict["checks"]] == list(CHECK_ORDER)


class TestDaemonLiveness:
    def test_down_host(self):
        view = healthy_view(hosts={
            "alpha": HostHealth("alpha", up=True, daemon=True),
            "beta": HostHealth("beta", up=False, daemon=False)})
        report = run_checks(view)
        result = result_for(report, "daemon-liveness")
        assert not result.ok and "beta" in result.detail
        assert report.exit_code == 10

    def test_dead_daemon_on_up_host(self):
        view = healthy_view(hosts={
            "alpha": HostHealth("alpha", up=True, daemon=True),
            "beta": HostHealth("beta", up=True, daemon=False)})
        result = result_for(run_checks(view), "daemon-liveness")
        assert not result.ok and "daemon dead" in result.detail

    def test_expected_host_never_probed(self):
        view = healthy_view(expected_hosts=("alpha", "beta", "gamma"))
        result = result_for(run_checks(view), "daemon-liveness")
        assert not result.ok and "gamma" in result.detail


class TestLpmLiveness:
    def test_dead_lpm(self):
        view = healthy_view(lpms=[
            LpmHealth("alpha", "lfc", alive=True),
            LpmHealth("beta", "lfc", alive=False)])
        report = run_checks(view)
        result = result_for(report, "lpm-liveness")
        assert not result.ok and "lfc@beta" in result.detail
        assert report.exit_code == 11

    def test_idle_world_is_healthy(self):
        result = result_for(run_checks(healthy_view(lpms=[])),
                            "lpm-liveness")
        assert result.ok and "idle" in result.detail


class TestOrphans:
    def test_orphan_fails(self):
        view = healthy_view(orphans=[
            OrphanRecord("alpha", "lfc", pid=42, command="solver")])
        report = run_checks(view)
        result = result_for(report, "orphan-processes")
        assert not result.ok and "solver" in result.detail
        assert report.exit_code == 12


class TestRpcAnomalies:
    def test_pending_request_pileup_fails(self):
        view = healthy_view(lpms=[
            LpmHealth("alpha", "lfc", alive=True,
                      pending_requests=MAX_PENDING_REQUESTS + 1)])
        report = run_checks(view)
        result = result_for(report, "rpc-anomalies")
        assert not result.ok and "pending" in result.detail
        assert report.exit_code == 15

    def test_pending_fails_only_past_max_pending(self):
        def view_with(pending):
            return healthy_view(lpms=[
                LpmHealth("alpha", "lfc", alive=True,
                          pending_requests=pending)])
        at_limit = view_with(MAX_PENDING_REQUESTS)
        assert result_for(run_checks(at_limit), "rpc-anomalies").ok
        past = view_with(MAX_PENDING_REQUESTS + 1)
        assert not result_for(run_checks(past), "rpc-anomalies").ok


class TestRegistryReadable:
    def test_netsim_has_no_registry(self):
        result = result_for(run_checks(healthy_view()),
                            "registry-readable")
        assert result.ok and "netsim" in result.detail

    def test_corrupt_registry_fails_first(self):
        # An unreadable registry also leaves the expected hosts
        # unprobed; the registry, not the daemons, names the exit.
        view = healthy_view(
            backend="realnet", hosts={},
            registry_error="host registry /tmp/r.json is corrupt: x")
        report = run_checks(view)
        assert report.failing[0].name == "registry-readable"
        assert "/tmp/r.json" in report.failing[0].detail
        assert report.exit_code == 19


class TestLatencySlo:
    def test_skipped_without_baseline(self):
        result = result_for(run_checks(healthy_view()), "latency-slo")
        assert result.ok and "skipped" in result.detail

    def test_regression_fails(self):
        view = healthy_view(latency={
            "rpc_rtt": {"count": 20, "p99_ms": 500.0}})
        report = run_checks(view, baseline={"rpc_rtt": 100.0})
        result = result_for(report, "latency-slo")
        assert not result.ok and "rpc_rtt" in result.detail
        assert report.exit_code == 16

    def test_thin_histograms_not_judged(self):
        view = healthy_view(latency={
            "rpc_rtt": {"count": 2, "p99_ms": 500.0}})
        result = result_for(run_checks(view, baseline={"rpc_rtt": 100.0}),
                            "latency-slo")
        assert result.ok

    def test_within_budget_passes(self):
        view = healthy_view(latency={
            "rpc_rtt": {"count": 20, "p99_ms": 150.0}})
        result = result_for(run_checks(view, baseline={"rpc_rtt": 100.0}),
                            "latency-slo")
        assert result.ok

    def test_boundary_is_slo_factor_over_slo_min_count(self):
        def judged(count, p99_ms):
            view = healthy_view(latency={
                "rpc_rtt": {"count": count, "p99_ms": p99_ms}})
            return result_for(
                run_checks(view, baseline={"rpc_rtt": 100.0}),
                "latency-slo").ok

        assert judged(SLO_MIN_COUNT, SLO_FACTOR * 100.0)
        assert not judged(SLO_MIN_COUNT, SLO_FACTOR * 100.0 + 0.1)
        assert judged(SLO_MIN_COUNT - 1, 1_000.0)


class TestRegistryStaleness:
    def test_netsim_has_no_registry(self):
        result = result_for(run_checks(healthy_view()),
                            "registry-staleness")
        assert result.ok and "netsim" in result.detail

    def test_stale_entry_fails(self):
        view = healthy_view(
            backend="realnet",
            registry_entries={"alpha": ("127.0.0.1", 1), "beta":
                              ("127.0.0.1", 2)},
            stale_entries=["beta"])
        report = run_checks(view)
        result = result_for(report, "registry-staleness")
        assert not result.ok and "beta" in result.detail
        assert report.exit_code == 17


class TestTriggerAlerts:
    def test_alert_fails(self):
        view = healthy_view(alerts=[
            OpsAlert("ops:tree-repair-storm", "11 repairs", 5.0)])
        report = run_checks(view)
        result = result_for(report, "trigger-alerts")
        assert not result.ok
        assert "ops:tree-repair-storm" in result.detail
        assert report.exit_code == 18


class TestSharedSchema:
    """DoctorReport.to_dict/check_to_dict: the one serialization of a
    report, behind ``repro doctor --json``.  The watch journal's
    incident records are a separate schema (``record_edge``)."""

    def test_report_dict_shape(self):
        view = healthy_view(probed_at_ms=1234.5)
        report = run_checks(view)
        as_dict = report.to_dict()
        assert as_dict["backend"] == "netsim"
        assert as_dict["ok"] is True
        assert as_dict["exit_code"] == 0
        assert as_dict["probed_at_ms"] == 1234.5
        assert [c["name"] for c in as_dict["checks"]] == list(CHECK_ORDER)

    def test_every_check_carries_duration(self):
        report = run_checks(healthy_view())
        for check in report.to_dict()["checks"]:
            assert check["duration_ms"] is not None
            assert check["duration_ms"] >= 0.0

    def test_check_dict_keys_stable(self):
        report = run_checks(healthy_view())
        assert set(check_to_dict(report.results[0])) == {
            "name", "ok", "detail", "exit_code", "duration_ms", "data"}


class TestOffendingEntities:
    def test_daemon_liveness_merges_all_failure_lists(self):
        view = healthy_view(
            expected_hosts=("alpha", "beta", "gamma"),
            hosts={"alpha": HostHealth("alpha", up=False, daemon=False),
                   "beta": HostHealth("beta", up=True, daemon=False)})
        result = result_for(run_checks(view), "daemon-liveness")
        assert offending_entities(result) == ("alpha", "beta", "gamma")

    def test_lpm_liveness_names_user_at_host(self):
        view = healthy_view(lpms=[
            LpmHealth("alpha", "lfc", alive=False),
            LpmHealth("beta", "lfc", alive=True)])
        result = result_for(run_checks(view), "lpm-liveness")
        assert offending_entities(result) == ("lfc@alpha",)

    def test_orphans_name_host_and_pid(self):
        view = healthy_view(orphans=[
            OrphanRecord("beta", "lfc", 42, "solver")])
        result = result_for(run_checks(view), "orphan-processes")
        assert offending_entities(result) == ("beta:42",)

    def test_registry_staleness_names_stale_hosts(self):
        view = healthy_view(
            backend="realnet",
            registry_entries={"alpha": ("127.0.0.1", 1),
                              "beta": ("127.0.0.1", 2)},
            stale_entries=["beta"])
        result = result_for(run_checks(view), "registry-staleness")
        assert offending_entities(result) == ("beta",)

    def test_trigger_alerts_name_the_triggers(self):
        view = healthy_view(alerts=[
            OpsAlert("ops:host-down", "x", 1.0),
            OpsAlert("ops:host-down", "y", 2.0),
            OpsAlert("ops:ccs-flap", "z", 3.0)])
        result = result_for(run_checks(view), "trigger-alerts")
        assert offending_entities(result) == ("ops:ccs-flap",
                                              "ops:host-down")

    def test_passing_check_blames_nobody(self):
        report = run_checks(healthy_view())
        for result in report.results:
            assert offending_entities(result) == ()
