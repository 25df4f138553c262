"""End-to-end doctor runs against in-process netsim worlds."""

import pytest

from repro import (
    HostClass,
    PersonalProcessManager,
    PPMConfig,
    World,
    install,
)
from repro.ops import EXIT_CODES, OpsAlert, probe_world
from repro.ops.checks import MAX_PENDING_REQUESTS
from repro.perf import PERF

HOSTS = [("alpha", HostClass.VAX_780), ("beta", HostClass.VAX_750),
         ("gamma", HostClass.SUN_2)]


def build_world(seed=7, config=None):
    world = World(seed=seed, config=config or PPMConfig())
    for name, host_class in HOSTS:
        world.add_host(name, host_class)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    return world


def start_session(world, home="alpha"):
    ppm = PersonalProcessManager(world, "lfc", home,
                                 recovery_hosts=["alpha", "beta"])
    ppm.start()
    return ppm


@pytest.fixture(autouse=True)
def clean_counters():
    PERF.reset()
    yield
    PERF.reset()


class TestHealthyWorld:
    def test_exits_zero(self):
        world = build_world()
        ppm = start_session(world)
        ppm.create_process("coordinator", host="beta")
        world.run_for(2_000.0)
        report = world.doctor()
        assert report.ok, report.render()
        assert report.exit_code == 0

    def test_probe_is_read_only(self):
        world = build_world()
        start_session(world)
        world.run_for(2_000.0)
        before_now = world.sim.now_ms
        before_scheduled = PERF.events_scheduled
        probe_world(world)
        assert world.sim.now_ms == before_now
        assert PERF.events_scheduled == before_scheduled


class TestFailureClasses:
    def test_crashed_host_fails_daemon_liveness(self):
        world = build_world()
        start_session(world)
        world.run_for(1_000.0)
        world.host("gamma").crash()
        report = world.doctor()
        assert not report.ok
        assert report.failing[0].name == "daemon-liveness"
        assert report.exit_code == EXIT_CODES["daemon-liveness"] == 10
        assert "gamma" in report.failing[0].detail

    def test_orphan_process_detected(self):
        world = build_world()
        start_session(world)          # LPM on alpha only
        world.run_for(1_000.0)
        # A user process on beta with no LPM administering it there.
        world.host("beta").spawn_user_process("lfc", "stray-solver")
        report = world.doctor()
        names = [r.name for r in report.failing]
        assert names == ["orphan-processes"]
        assert report.exit_code == EXIT_CODES["orphan-processes"]
        assert "stray-solver" in report.failing[0].detail

    def test_rpc_pending_anomaly(self):
        world = build_world()
        start_session(world)
        world.run_for(1_000.0)
        lpm = world.lpms[("alpha", "lfc")]
        for req_id in range(10_000, 10_000 + MAX_PENDING_REQUESTS + 1):
            lpm.rpc.register(req_id, lambda reply: None, None)
        report = world.doctor()
        assert [r.name for r in report.failing] == ["rpc-anomalies"]
        assert report.exit_code == EXIT_CODES["rpc-anomalies"]

    def test_latency_slo_regression_against_tight_baseline(self):
        world = build_world()
        ppm = start_session(world)
        ppm.enable_span_tracing()
        for _ in range(6):
            ppm.create_process("coordinator", host="beta")
        world.run_for(2_000.0)
        # An impossible baseline: any measured p99 is a regression.
        report = world.doctor(baseline={"rpc_rtt": 0.001})
        assert [r.name for r in report.failing] == ["latency-slo"]
        assert report.exit_code == EXIT_CODES["latency-slo"]

    def test_two_onsets_in_one_sweep_are_two_alerts(self):
        # One sweep can fail two checks at once; each onset is its own
        # incident (ops.triggers.watch_onset_trigger), as on realnet.
        alerts = [OpsAlert("ops:watch-onset", "daemon-liveness", 5.0),
                  OpsAlert("ops:watch-onset", "orphan-processes", 5.0)]
        view = probe_world(build_world(), alerts=alerts)
        assert view.alerts == alerts


class TestCounters:
    def test_doctor_counters_move_only_on_runs(self):
        world = build_world()
        start_session(world)
        world.run_for(1_000.0)
        assert PERF.doctor_runs == 0
        world.doctor()
        assert PERF.doctor_runs == 1
        assert PERF.doctor_checks_failed == 0
        world.host("gamma").crash()
        world.doctor()
        assert PERF.doctor_runs == 2
        assert PERF.doctor_checks_failed >= 1
