"""Tests for the command-line interface."""

import argparse
import io
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main

#: Every subcommand's options and their defaults.  A shared option
#: group that drops an option from one command, or adds one to
#: another, changes a row here.
PARSER_CONTRACT = {
    "demo": {"--seed": 1},
    "shell": {"--seed": 1},
    "stats": {"--seed": 1},
    "trace": {"--seed": 1, "--out": "trace.json"},
    "serve": {"--host": None, "--registry": None, "--bind": "127.0.0.1",
              "--budget-s": None, "--trace-spans": False},
    "run-real": {"--hosts": 3, "--budget-s": 60.0, "--trace-spans": False},
    "doctor": {"--seed": 1, "--inject": None, "--registry": None,
               "--hosts": None, "--timeout-ms": 3000.0, "--baseline": None,
               "--write-baseline": None, "--json": False},
    "watch": {"--seed": 1, "--interval-ms": 1000.0, "--max-sweeps": 8,
              "--journal": None, "--checks": None, "--inject": None,
              "--registry": None, "--hosts": None, "--timeout-ms": 3000.0,
              "--baseline": None},
    "incidents": {"journal": None, "--json": False},
    "version": {},
}


def subparsers():
    """``{name: subparser}`` of the built ``repro`` parser."""
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_subcommand_keeps_its_options_and_defaults():
    found = {name: {(action.option_strings[-1] if action.option_strings
                     else action.dest): action.default
                    for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)}
             for name, parser in subparsers().items()}
    assert found == PARSER_CONTRACT


@pytest.mark.parametrize("name", [row[0] for row in COMMANDS])
def test_every_table_row_prints_its_help(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    assert "usage: repro %s" % name in capsys.readouterr().out


def test_version(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "ICDCS 1986" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "demo" in capsys.readouterr().out


def test_demo_runs(capsys):
    assert main(["demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "snapshot at" in out
    assert "Exited process resource consumption" in out
    assert "(stopped)" in out


def test_demo_deterministic(capsys):
    main(["demo", "--seed", "5"])
    first = capsys.readouterr().out
    main(["demo", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_shell_scripted(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "create ucbarpa job spinner\n"
        "run 1000\n"
        "run bogus\n"
        "snapshot\n"
        "quit\n"))
    assert main(["shell", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "created <ucbarpa," in out
    assert "advanced to" in out
    assert "usage: run <ms>" in out
    assert "job" in out


def test_stats_prints_counters_and_percentiles(capsys):
    assert main(["stats", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "perf counters" in out
    assert "latency histograms (simulated ms)" in out
    for op in ("rpc_rtt", "broadcast_settle", "gather_complete",
               "stream_lag", "tool_call"):
        assert op in out
    assert "p95_ms" in out


def test_stats_latency_deterministic(capsys):
    # The counter table can differ across in-process reruns (the
    # process-global hmac memo survives PERF.reset), but the simulated
    # latency percentiles must reproduce exactly.
    marker = "latency histograms"
    main(["stats", "--seed", "6"])
    first = capsys.readouterr().out
    main(["stats", "--seed", "6"])
    second = capsys.readouterr().out
    assert marker in first
    assert first[first.index(marker):] == second[second.index(marker):]


def test_trace_writes_loadable_chrome_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    assert main(["trace", "--seed", "4", "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    trace = json.loads(out_path.read_text(encoding="utf-8"))
    events = trace["traceEvents"]
    assert events
    assert trace["otherData"]["clock"] == "simulated"
    hosts = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert {"ucbvax", "ucbarpa"} <= hosts
    assert any(e["ph"] == "X" for e in events)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "version"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "repro" in result.stdout


def test_stats_prints_operational_alerts_section(capsys):
    assert main(["stats", "--seed", "4"]) == 0
    assert "operational alerts" in capsys.readouterr().out


def test_doctor_healthy_netsim_exits_zero(capsys):
    assert main(["doctor", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "doctor: healthy (exit 0)" in out
    assert "daemon-liveness" in out


def test_doctor_injected_dead_host_exits_ten(capsys):
    code = main(["doctor", "--seed", "2", "--inject", "dead-host"])
    assert code == 10
    out = capsys.readouterr().out
    assert "first failing check 'daemon-liveness' (exit 10)" in out
    # The injected crash also latches the host-down ops trigger.
    assert "ops:host-down" in out


def test_doctor_json_report(capsys):
    import json

    assert main(["doctor", "--seed", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["backend"] == "netsim"
    names = [check["name"] for check in report["checks"]]
    assert "daemon-liveness" in names and "trigger-alerts" in names


def test_doctor_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["doctor", "--seed", "2",
                 "--write-baseline", str(baseline)]) == 0
    assert "wrote baseline" in capsys.readouterr().out
    assert main(["doctor", "--seed", "2",
                 "--baseline", str(baseline)]) == 0
    assert "p99 within" in capsys.readouterr().out


def test_doctor_corrupt_registry_exits_19_naming_the_path(tmp_path,
                                                          capsys):
    registry = tmp_path / "registry.json"
    registry.write_text("{not json", encoding="utf-8")
    assert main(["doctor", "--registry", str(registry)]) == 19
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert "registry-readable" in lines[0]
    assert str(registry) in lines[0]


def test_watch_corrupt_registry_records_an_onset(tmp_path, capsys):
    import json

    registry = tmp_path / "registry.json"
    registry.write_text("{not json", encoding="utf-8")
    journal = tmp_path / "journal.jsonl"
    code = main(["watch", "--registry", str(registry),
                 "--max-sweeps", "2", "--interval-ms", "10",
                 "--journal", str(journal)])
    assert code == 19
    assert "ONSET registry-readable" in capsys.readouterr().out
    records = [json.loads(line) for line in
               journal.read_text(encoding="utf-8").splitlines()]
    edges = [(r["check"], r["edge"]) for r in records
             if r["kind"] == "incident"]
    assert edges == [("registry-readable", "onset")]


def test_watch_healthy_netsim_exits_zero(capsys):
    assert main(["watch", "--seed", "2", "--max-sweeps", "3"]) == 0
    out = capsys.readouterr().out
    assert "watching netsim demo world" in out
    assert "watch complete: 3 sweeps, 0 edges, 0 open incident(s)" in out


def test_watch_dead_host_drill_journals_one_incident(tmp_path, capsys):
    import json

    journal = tmp_path / "journal.jsonl"
    code = main(["watch", "--seed", "2", "--inject", "dead-host",
                 "--journal", str(journal),
                 "--checks", "daemon-liveness"])
    out = capsys.readouterr().out
    assert code == 0, "drill recovers, so the watch must exit clean"
    assert "drill: crashed ucbernie" in out
    assert "drill: rebooted ucbernie" in out
    assert "ONSET daemon-liveness (ucbernie) exit 10" in out
    assert "CLEAR daemon-liveness (ucbernie) exit 0" in out
    records = [json.loads(line) for line in
               journal.read_text(encoding="utf-8").splitlines()]
    assert records[0]["kind"] == "watch-start"
    edges = [(r["check"], r["edge"]) for r in records
             if r["kind"] == "incident"]
    assert edges == [("daemon-liveness", "onset"),
                     ("daemon-liveness", "clear")]


def test_watch_unrecovered_incident_names_the_exit(capsys):
    # Crash at sweep 2, but stop watching before the reboot sweep:
    # the open daemon-liveness incident sets the exit code.
    code = main(["watch", "--seed", "2", "--inject", "dead-host",
                 "--max-sweeps", "4", "--checks", "daemon-liveness"])
    assert code == 10
    assert "1 open incident(s)" in capsys.readouterr().out


def test_watch_rejects_a_misspelt_check_name(capsys):
    # Watching no check would report the drill's crash as healthy.
    with pytest.raises(SystemExit) as exit_info:
        main(["watch", "--inject", "dead-host",
              "--checks", "daemon-livenes"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'daemon-livenes'" in err
    assert "daemon-liveness" in err


def test_watch_then_incidents_roundtrip(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    main(["watch", "--seed", "2", "--inject", "dead-host",
          "--journal", str(journal), "--checks", "daemon-liveness"])
    capsys.readouterr()
    assert main(["incidents", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "incident timeline" in out
    assert "mean time to recovery" in out
    assert "daemon-liveness" in out


def test_incidents_json_mode(tmp_path, capsys):
    import json

    journal = tmp_path / "journal.jsonl"
    main(["watch", "--seed", "2", "--inject", "dead-host",
          "--journal", str(journal), "--checks", "daemon-liveness"])
    capsys.readouterr()
    assert main(["incidents", str(journal), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mttr"]["daemon-liveness"]["onsets"] == 1
    assert payload["mttr"]["daemon-liveness"]["mttr_ms"] > 0
