"""The continuous watch loop: edge detection, the incident journal,
the netsim driver, and the read-only sweep contract."""

import json

import pytest

from repro import HostClass, PersonalProcessManager, World, install
from repro.ops import (EXIT_CODES, IncidentJournal, Watcher, WorldView,
                       install_ops_triggers, mttr_by_check, read_journal,
                       render_incidents, run_checks, watch_world)
from repro.ops.checks import HostHealth
from repro.ops.watch import RUNBOOK_ANCHORS
from repro.perf import PERF
from repro.tracing import TraceEventType, TraceRecorder, TriggerEngine

HOSTS = ["alpha", "beta", "gamma"]


@pytest.fixture(autouse=True)
def clean_counters():
    PERF.reset()
    yield
    PERF.reset()


def make_view(down=()):
    hosts = {name: HostHealth(name, up=name not in down,
                              daemon=name not in down)
             for name in HOSTS}
    return WorldView(backend="netsim", expected_hosts=tuple(HOSTS),
                     hosts=hosts)


def report_at(t_ms, down=()):
    return run_checks(make_view(down=down)), t_ms


class TestWatcherEdges:
    def test_healthy_sweeps_produce_no_edges(self):
        watcher = Watcher(checks=("daemon-liveness",))
        for t_ms in (0.0, 100.0, 200.0):
            report, _ = report_at(t_ms)
            assert watcher.feed(report, t_ms) == []
        assert watcher.sweeps == 3
        assert PERF.watch_sweeps == 3
        assert PERF.watch_edges == 0

    def test_onset_fires_once_while_condition_persists(self):
        watcher = Watcher(checks=("daemon-liveness",))
        watcher.feed(run_checks(make_view()), 0.0)
        edges = watcher.feed(run_checks(make_view(down=("gamma",))),
                             100.0)
        assert [e.edge for e in edges] == ["onset"]
        onset = edges[0]
        assert onset.check == "daemon-liveness"
        assert onset.entities == ("gamma",)
        assert onset.exit_code == EXIT_CODES["daemon-liveness"]
        assert onset.runbook == RUNBOOK_ANCHORS["daemon-liveness"]
        # Ten more failing sweeps: still the one onset.
        for t_ms in range(200, 1200, 100):
            assert watcher.feed(
                run_checks(make_view(down=("gamma",))),
                float(t_ms)) == []
        assert watcher.open_incidents() == {"daemon-liveness": 100.0}
        assert PERF.watch_edges == 1

    def test_clear_carries_duration_and_onset_entities(self):
        watcher = Watcher(checks=("daemon-liveness",))
        watcher.feed(run_checks(make_view()), 0.0)
        watcher.feed(run_checks(make_view(down=("gamma",))), 100.0)
        edges = watcher.feed(run_checks(make_view()), 450.0)
        assert [e.edge for e in edges] == ["clear"]
        clear = edges[0]
        assert clear.exit_code == 0
        assert clear.duration_ms == pytest.approx(350.0)
        assert clear.entities == ("gamma",)
        assert watcher.open_incidents() == {}

    def test_failing_on_first_sweep_is_an_onset(self):
        watcher = Watcher(checks=("daemon-liveness",))
        edges = watcher.feed(run_checks(make_view(down=("beta",))), 5.0)
        assert [e.edge for e in edges] == ["onset"]

    def test_checks_filter_hides_other_transitions(self):
        watcher = Watcher(checks=("lpm-liveness",))
        watcher.feed(run_checks(make_view()), 0.0)
        assert watcher.feed(
            run_checks(make_view(down=("gamma",))), 100.0) == []

    def test_edges_feed_recorder_and_watch_onset_trigger(self):
        clock = {"now": 0.0}
        recorder = TraceRecorder(lambda: clock["now"])
        engine = TriggerEngine(recorder)
        alerts = install_ops_triggers(engine)
        watcher = Watcher(checks=("daemon-liveness",),
                          recorder=recorder)
        watcher.feed(run_checks(make_view()), 0.0)
        clock["now"] = 100.0
        watcher.feed(run_checks(make_view(down=("gamma",))), 100.0)
        clock["now"] = 200.0
        watcher.feed(run_checks(make_view(down=("gamma",))), 200.0)
        onsets = [a for a in alerts if a.name == "ops:watch-onset"]
        assert len(onsets) == 1, "one onset edge -> one latched alert"
        assert "daemon-liveness" in onsets[0].detail
        assert "gamma" in onsets[0].detail
        events = recorder.select(event_type=TraceEventType.WATCH_EDGE)
        assert len(events) == 1
        assert events[0].details["edge"] == "onset"
        # The clear is an edge event too, but latches no alert.
        clock["now"] = 300.0
        watcher.feed(run_checks(make_view()), 300.0)
        assert len([a for a in alerts
                    if a.name == "ops:watch-onset"]) == 1
        assert recorder.count(TraceEventType.WATCH_EDGE) == 2

    def test_unknown_check_name_is_rejected(self):
        # A misspelt name would watch nothing and call a sick world
        # healthy.
        with pytest.raises(ValueError, match="daemon-livenes"):
            Watcher(checks=("daemon-livenes",))


class TestIncidentJournal:
    def drill_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = IncidentJournal(str(path))
        journal.start("netsim", 100.0, ("daemon-liveness",), t_ms=0.0)
        watcher = Watcher(checks=("daemon-liveness",), journal=journal)
        watcher.feed(run_checks(make_view()), 0.0)
        watcher.feed(run_checks(make_view(down=("gamma",))), 100.0)
        watcher.feed(run_checks(make_view(down=("gamma",))), 200.0)
        watcher.feed(run_checks(make_view()), 300.0)
        return path, journal

    def test_jsonl_schema_and_monotonic_seq(self, tmp_path):
        path, journal = self.drill_records(tmp_path)
        records = read_journal(str(path))
        assert records == journal.records
        assert [r["seq"] for r in records] == [0, 1, 2]
        header, onset, clear = records
        assert header["kind"] == "watch-start"
        assert header["backend"] == "netsim"
        assert header["checks"] == ["daemon-liveness"]
        assert onset == {"kind": "incident", "seq": 1, "t_ms": 100.0,
                         "check": "daemon-liveness", "edge": "onset",
                         "entities": ["gamma"], "exit_code": 10,
                         "detail": "down: gamma",
                         "runbook": RUNBOOK_ANCHORS["daemon-liveness"]}
        assert clear["edge"] == "clear"
        assert clear["duration_ms"] == pytest.approx(200.0)
        # Incident records carry no backend: the header does, so the
        # same drill journals identically on netsim and realnet.
        assert "backend" not in onset and "backend" not in clear

    def test_append_only_tolerates_torn_tail(self, tmp_path):
        path, _ = self.drill_records(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "incident", "tru')  # crash mid-write
        records = read_journal(str(path))
        assert len(records) == 3

    def test_mttr_by_check(self, tmp_path):
        path, _ = self.drill_records(tmp_path)
        stats = mttr_by_check(read_journal(str(path)))
        entry = stats["daemon-liveness"]
        assert entry["onsets"] == 1
        assert entry["clears"] == 1
        assert entry["open"] is False
        assert entry["mttr_ms"] == pytest.approx(200.0)

    def test_render_incidents_timeline_and_mttr(self, tmp_path):
        path, _ = self.drill_records(tmp_path)
        text = render_incidents(read_journal(str(path)))
        assert "incident timeline" in text
        assert "ONSET" in text and "CLEAR" in text
        assert "mean time to recovery" in text
        assert "200.0 ms" in text

    def test_empty_journal_renders(self):
        assert "no incidents" in render_incidents([])


def build_world(seed=11):
    world = World(seed=seed)
    for name, host_class in zip(HOSTS, (HostClass.VAX_780,
                                        HostClass.VAX_750,
                                        HostClass.SUN_2)):
        world.add_host(name, host_class)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    PersonalProcessManager(world, "lfc", HOSTS[0],
                           recovery_hosts=HOSTS[:2]).start()
    world.run_for(1_000.0)
    return world


class TestWatchWorld:
    def drill(self, world, journal=None):
        def act(watcher, report, edges):
            if watcher.sweeps == 2:
                world.host("gamma").crash()
            elif watcher.sweeps == 5:
                world.host("gamma").reboot()
        return watch_world(world, interval_ms=500.0, max_sweeps=8,
                           journal=journal,
                           checks=("daemon-liveness",), on_sweep=act)

    def test_dead_host_drill_one_onset_one_clear(self):
        journal = IncidentJournal()
        self.drill(build_world(), journal=journal)
        incidents = [r for r in journal.records
                     if r["kind"] == "incident"]
        assert [(r["check"], r["edge"]) for r in incidents] == [
            ("daemon-liveness", "onset"), ("daemon-liveness", "clear")]
        assert incidents[0]["entities"] == ["gamma"]
        # Virtual time: crash seen on sweep 3, clear on sweep 6.
        assert incidents[1]["t_ms"] - incidents[0]["t_ms"] == \
            pytest.approx(1_500.0)

    def test_watch_is_deterministic(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            path = tmp_path / ("journal-%s.jsonl" % run)
            self.drill(build_world(),
                       journal=IncidentJournal(str(path)))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_probe_and_feed_schedule_nothing(self):
        from repro.ops import probe_world, run_doctor
        world = build_world()
        watcher = Watcher(checks=("daemon-liveness",))
        before_clock = world.sim.now_ms
        before = PERF.snapshot()
        view = probe_world(world)
        watcher.feed(run_doctor(view), view.probed_at_ms)
        delta = PERF.delta_since(before)
        assert world.sim.now_ms == before_clock
        assert delta["events_scheduled"] == 0
        assert delta["events_run"] == 0
        assert delta["watch_sweeps"] == 1
