"""Command line of the end-to-end benchmark.

``--workload NAME`` measures one workload in this process and prints,
as the last line of standard output, one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload is run that way in a child process of its
own (so set-up time is timed from a real process start and one
workload's memory peak never shows in another's ``rss_mb``).
"""

import time

#: As close to process start as this package can see; ``setup_s``
#: counts from here, before ``repro`` is imported.
PROCESS_T0 = time.perf_counter()

import argparse
import bisect
import contextlib
import itertools
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys

from . import harness

#: The end-to-end metrics, in report order: (name, unit).  A failed op
#: is counted in ``attempted``/``failed`` of the result line, which is
#: where ``fail_ratio`` lives (README): it is 0 on a healthy run, and a
#: relative bound on 0 means nothing.
E2E_METRICS = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
               ("op_p90_ms", "ms"), ("cpu_ms_per_op", "ms"),
               ("rss_mb", "MB")]

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3

#: ``--trace both`` measures untraced for ``--seconds``, then traced for
#: at most this long (three slices).
TRACED_SECONDS = 6.0

#: Raw spans each process keeps when a Chrome trace is asked for.
SPAN_CAP = 50_000

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------

@contextlib.contextmanager
def prepared(cls, options, traced: bool, warmup_ops: int, seconds: float,
             reference: harness.SpeedReference):
    """One complete set-up, in two stretches: launch the fleet (none
    for the simulator); connect, build the standing population and warm
    up.  Yields the workload, its fleet and how long the two took
    (``harness.timed_stretch``); tears both down."""
    from .workloads import OP_FAILURES
    workload = cls(options.seed)
    fleet = harness.Fleet(cls.hosts, budget_s=seconds + 120.0, traced=traced,
                          span_cap=SPAN_CAP if options.trace_out else 0)

    def open_and_warm_up():
        workload.open(fleet.registry_path)
        harness.warm_up(workload.op, warmup_ops, OP_FAILURES, reference)

    try:
        launch = harness.timed_stretch(fleet.launch, fleet, reference)
        try:
            warm = harness.timed_stretch(open_and_warm_up, fleet, reference)
            yield workload, fleet, {"launch": launch, "warm_up": warm}
        finally:
            workload.close()
    finally:
        fleet.close()


def run_workload(cls, options, traced: bool, imports: dict,
                 reference: harness.SpeedReference) -> dict:
    """Set up (several times when untraced), measure once, tear down.

    Returns the result: ``correct``/``attempted``/``failed``/``metrics``
    plus ``diagnostics``, which are printed but are not metrics.
    """
    from .workloads import OP_FAILURES
    tracer = None
    if traced:
        from repro.perf import PERF
        from . import layers, shims
        tracer = shims.install(SPAN_CAP if options.trace_out else 0)
    seconds = options.seconds
    if traced and options.trace == "both":
        seconds = min(seconds, TRACED_SECONDS)
    warmup_ops = cls.warmup_ops
    setups = 1 if traced else SETUPS
    if options.smoke:
        # 16 ops is one round of tool_startup's rotation: every LPM
        # still exists before the window opens.
        warmup_ops, setups = min(warmup_ops, 16), 1
    setup_runs, leftovers = [], []
    for _ in range(setups - 1):
        with prepared(cls, options, traced, warmup_ops, seconds,
                      reference) as (_workload, fleet, took):
            setup_runs.append(took)
        leftovers += fleet.leftovers
    with prepared(cls, options, traced, warmup_ops, seconds, reference) as (
            workload, fleet, took):
        setup_runs.append(took)
        ticks = harness.cpu_ticks(options.cpu)
        perf_before = PERF.snapshot() if traced else None
        window = harness.measure(
            workload.op, seconds, fleet.pids, OP_FAILURES, reference,
            mark_op=tracer.mark_op if traced else None)
        steal = harness.steal_percent(ticks, harness.cpu_ticks(options.cpu))
        rss_kb = sum(harness.peak_rss_kb(pid)
                     for pid in [os.getpid()] + fleet.pids)
        if traced:
            perf_per_op = {name: count / window.attempted for name, count
                           in PERF.delta_since(perf_before).items()}
            extras = workload.layer_extras()
    leftovers += fleet.leftovers

    diagnostics = {
        "workload": cls.name, "traced": traced, "seed": options.seed,
        "drift_ratio": window.drift_ratio(),
        "slices": window.slices,
        "fail_ratio": window.failed / window.attempted,
        "failures": window.failure_notes, "leftovers": leftovers,
        "setups": setup_runs, "imports": imports,
        "env": environment(options.cpu, steal),
    }
    if traced:
        exports = [tracer.export()] + fleet.exports
        totals = layers.window_totals(exports, window.start_ns,
                                      window.end_ns)
        extras["trace.ops_per_s"] = window.median_of("ops_per_s")
        metrics = layers.layer_metrics(totals, perf_per_op, extras)
        diagnostics["serve_perf"] = {
            host: {name: count for name, count in export["perf"].items()
                   if count and name.startswith("real_")}
            for host, export in zip(cls.hosts, exports[1:])}
        if options.trace_out:
            write_chrome_trace(options.trace_out, exports,
                               ["client"] + list(cls.hosts))
    else:
        values = {name: window.median_of(name)
                  for name in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                               "cpu_ms_per_op")}
        values["setup_s"] = imports["at_reference_s"] + statistics.median(
            sum(stretch["at_reference_s"] for stretch in entry.values())
            for entry in setup_runs)
        values["rss_mb"] = rss_kb / 1024.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_METRICS}
    return {"correct": window.failed == 0 and not leftovers,
            "attempted": window.attempted, "failed": window.failed,
            "metrics": metrics, "diagnostics": diagnostics}


def environment(cpu: int, steal_percent: float) -> dict:
    """Where the run happened, so a slow pass can be told from a slow
    program."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.REPO_ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "pinned_cpu": cpu, "kernel": platform.release(),
            "git_commit": commit or "unknown",
            "steal_percent": steal_percent}


def write_chrome_trace(path: str, exports, process_names) -> None:
    """All processes' retained spans as one Chrome trace (``about:
    tracing`` / Perfetto).  Serve spans get the op that was outstanding
    when they started: one op in flight makes that unambiguous."""
    op_starts = [span[1] for span in exports[0]["spans"]
                 if span[0] == "op"]
    events = []
    for pid, (export, process) in enumerate(zip(exports, process_names)):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": process}})
        for name, start_ns, end_ns, parent, op in export["spans"]:
            if pid:
                op = bisect.bisect_right(op_starts, start_ns) - 1
            events.append({"name": name, "ph": "X", "pid": pid, "tid": 0,
                           "ts": start_ns / 1e3,
                           "dur": (end_ns - start_ns) / 1e3,
                           "args": {"op": op, "parent": parent}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    shown = {name: entry for name, entry in metrics.items()
             if entry["value"]}
    for name, entry in shown.items():
        print("  %-40s %14.4f %s" % (name, entry["value"], entry["unit"]))
    if len(shown) < len(metrics):
        print("  (%d more are 0: layers this workload does not touch)"
              % (len(metrics) - len(shown)))


def run_single(options) -> int:
    """``--workload NAME``: measure here, print the result line last."""
    if not os.path.isdir(os.path.join(harness.SRC_DIR, "repro")):
        print("benchmarks/e2e: no program to measure: %s/repro is missing"
              % harness.SRC_DIR, file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC_DIR)
    from . import workloads
    # All the CPU this process has used so far went into starting up.
    import_s, import_cpu_s = (time.perf_counter() - PROCESS_T0,
                              time.process_time())
    reference = harness.SpeedReference()
    reference.block()
    imports = harness.stretch_report(import_s, import_cpu_s, import_cpu_s,
                                     statistics.fmean(reference.speeds))
    cls = {cls.name: cls for cls in workloads.WORKLOADS}.get(options.workload)
    if cls is None:
        print("benchmarks/e2e: unknown workload %r" % options.workload,
              file=sys.stderr)
        return 2
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    diagnostics = []
    try:
        for traced in {"0": [False], "1": [True],
                       "both": [False, True]}[options.trace]:
            run = run_workload(cls, options, traced, imports, reference)
            print_metrics("%s, %s run:" % (cls.name, "traced" if traced
                                           else "untraced"), run["metrics"])
            diagnostics.append(run.pop("diagnostics"))
            result["correct"] = result["correct"] and run["correct"]
            result["attempted"] += run["attempted"]
            result["failed"] += run["failed"]
            result["metrics"].update(run["metrics"])
    finally:
        reference.close()
    if options.trace == "both":
        # Traced over untraced throughput: what the shims cost.
        ratio = (result["metrics"]["trace.ops_per_s"]["value"]
                 / result["metrics"]["ops_per_s"]["value"])
        result["metrics"]["trace_overhead_ratio"] = {"value": ratio,
                                                     "unit": "1"}
        print("  %-40s %14.4f" % ("trace_overhead_ratio", ratio))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------

def contract() -> dict:
    """BENCHMARK.json: the workload list (readable without importing
    ``repro``), the metric names and their bounds.  ``--selfcheck``
    holds the code to it."""
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names():
    return [entry["name"] for entry in contract()["workloads"]]


def run_child(name: str, options, seed: int, echo: bool = True) -> dict:
    """One workload in a fresh process; its result plus diagnostics."""
    argv = [sys.executable, os.path.join(harness.HERE, "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(options.seconds), "--trace", options.trace]
    if options.smoke:
        argv.append("--smoke")
    if options.trace_out:
        root, ext = os.path.splitext(options.trace_out)
        argv += ["--trace-out", "%s.%s%s" % (root, name, ext)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=180.0 + 2 * options.seconds)
    except BaseException:
        # SIGTERM, not the SIGKILL subprocess.run would send: the child
        # unwinds as on Ctrl-C and tears its fleet down.
        child.terminate()
        try:
            child.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    lines = stdout.splitlines()
    if child.returncode not in (0, 1) or len(lines) < 2:
        raise harness.HarnessError(
            "workload %s exited %d without a result:\n%s"
            % (name, child.returncode, stdout))
    if echo:
        print("\n".join(lines[:-2]), flush=True)
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def run_all(options) -> dict:
    results = {name: run_child(name, options, options.seed)
               for name in workload_names()}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


# ----------------------------------------------------------------------
# --check-noise
# ----------------------------------------------------------------------

def relative_gap(first, second) -> float:
    """How far apart two medians of the same code are, as a share of
    the smaller (so the gap reads the same whichever set came first)."""
    a, b = statistics.median(first), statistics.median(second)
    return abs(a - b) / min(a, b)


def balanced_splits(count: int):
    """Every way to cut passes 0..count-1 into two sets whose sizes
    differ by at most one (each unordered pair once)."""
    for chosen in itertools.combinations(range(count), count // 2):
        if count % 2 or 0 in chosen:
            yield chosen, [i for i in range(count) if i not in chosen]


def check_noise(options) -> int:
    """N passes of the same code; do two halves of them agree?

    Prints a Markdown report (committed as NOISE.md).  For each
    (workload, metric): the medians of the alternate split (passes
    0,2,4.. vs 1,3,5..), their relative gap, the worst gap over every
    balanced split, the interquartile spread over all passes as a share
    of the median, and PASS when the worst gap is within the metric's
    bound in BENCHMARK.json.  One more row per workload shows the same
    for the uncorrected p50, which no bound applies to.
    """
    passes = options.check_noise
    bounds = {entry["name"]: entry["bound"]
              for entry in contract()["end_to_end"]}
    names = workload_names()
    runs = {name: [] for name in names}
    for index in range(passes):
        for name in names:
            # Another seed each pass, as the driver does.
            result = run_child(name, options, options.seed + index,
                               echo=False)
            if not result["correct"]:
                print("pass %d of %s was not correct: %s"
                      % (index, name, json.dumps(result["diagnostics"])))
                return 1
            runs[name].append(result)
            print("<!-- pass %d %s done, steal %.1f%% -->" % (
                index, name,
                result["diagnostics"][0]["env"]["steal_percent"]),
                flush=True)
    print("# Noise of benchmarks/e2e: %d passes x %.0f s, seeds %d..%d\n"
          % (passes, options.seconds, options.seed,
             options.seed + passes - 1))
    print("| workload | metric | median A | median B | gap | worst gap "
          "| IQR/median | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    verdict = 0
    for name in names:
        rows = [(metric, [run["metrics"][metric]["value"]
                          for run in runs[name]], bounds[metric])
                for metric, _unit in E2E_METRICS]
        # What the speed correction started from: not a metric, no bound.
        rows.append(("(raw op_p50_ms)", [
            statistics.median(entry["raw_p50_ms"] for entry
                              in run["diagnostics"][0]["slices"])
            for run in runs[name]], None))
        for metric, values, bound in rows:
            worst = max(relative_gap([values[i] for i in a],
                                     [values[i] for i in b])
                        for a, b in balanced_splits(passes))
            quartiles = statistics.quantiles(values, n=4)
            spread = (quartiles[2] - quartiles[0]) / statistics.median(values)
            ok = bound is None or worst <= bound
            verdict |= not ok
            print("| %s | %s | %.4f | %.4f | %.3f | %.3f | %.3f | %s | %s |"
                  % (name, metric, statistics.median(values[0::2]),
                     statistics.median(values[1::2]),
                     relative_gap(values[0::2], values[1::2]), worst,
                     spread, "" if bound is None else "%.2f" % bound,
                     "" if bound is None else "PASS" if ok else "FAIL"))
    print("\n%s" % ("FAIL: a worst gap exceeds its bound" if verdict
                    else "PASS: every worst gap is within its bound"))
    return verdict


# ----------------------------------------------------------------------
# --selfcheck
# ----------------------------------------------------------------------

def selfcheck(options) -> int:
    """Run the smoke (traced run included) and hold it to the contract."""
    from .layers import LAYER_METRICS
    options.smoke, options.seconds, options.trace = True, 0.5, "both"
    benchmark = contract()
    report = run_all(options)
    e2e = [name for name, _unit in E2E_METRICS]
    per_layer = [entry[0] for entry in LAYER_METRICS]
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    expect([m["name"] for m in benchmark["end_to_end"]] == e2e,
           "BENCHMARK.json end_to_end names differ from the code's")
    expect([m["name"] for m in benchmark["per_layer"]] == per_layer,
           "BENCHMARK.json per_layer names differ from the code's")
    expect(len(e2e) <= 16 and len(per_layer) <= 128, "too many metrics")
    for name in e2e + per_layer + list(report["workloads"]):
        expect(NAME_RE.match(name), "bad name %r" % name)
    #: Layers the README's table says a workload never touches.
    untouched = {
        "rtt_small": ["localos.spawn.calls_per_op",
                      "node.accept.calls_per_op",
                      "registry.read.calls_per_op",
                      "lpm.sibling.requests_per_op",
                      "pmd.bootstrap.calls_per_op"],
        "snapshot_wide": ["registry.read.calls_per_op",
                          "localos.spawn.calls_per_op"],
        "proc_churn": ["procfs.children_map.calls_per_op",
                       "pmd.bootstrap.calls_per_op"],
        "tool_startup": ["lpm.sibling.requests_per_op",
                         "localos.spawn.calls_per_op",
                         "pmd.lpm_created_per_op"],
        "sim_session": ["node.dispatch.calls_per_op",
                        "fabric.pump.pumps_per_op",
                        "framing.feed.calls_per_op",
                        "localos.spawn.calls_per_op"],
    }
    for name, result in report["workloads"].items():
        expect(result["correct"] and result["failed"] == 0,
               "%s: failed ops or leftovers" % name)
        metrics = result["metrics"]
        expect(set(metrics) == set(e2e + per_layer)
               | {"trace_overhead_ratio"},
               "%s: reported metrics differ from the contract" % name)
        for metric, entry in metrics.items():
            expect(math.isfinite(entry["value"]),
                   "%s: %s is not finite" % (name, metric))
        for metric in e2e:
            expect(metrics.get(metric, {"value": 0})["value"] > 0,
                   "%s: %s is not positive" % (name, metric))
        for metric in untouched[name]:
            expect(metrics.get(metric, {"value": 1})["value"] == 0,
                   "%s: %s should be 0" % (name, metric))
    for problem in problems:
        print("selfcheck: " + problem)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="Wall-clock benchmark of the live fleet and the "
                    "simulator (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", help="measure only this workload, "
                        "in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=47,
                        help="workload seed (default 47)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window, cut into "
                             "slices of about %.0f s" % harness.SLICE_S)
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"],
                        help="0: untraced run, end-to-end metrics; 1: "
                             "traced run, per-layer metrics; both (or "
                             "bare --trace): one after the other, plus "
                             "trace_overhead_ratio")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced run's spans as a Chrome "
                             "trace (FILE gets the workload's name "
                             "inserted when all workloads run)")
    parser.add_argument("--smoke", action="store_true",
                        help="one 0.5 s slice per workload, short "
                             "warm-up, traced run included")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the smoke and assert the contract")
    parser.add_argument("--check-noise", nargs="?", type=int, const=6,
                        metavar="N", help="N passes (default 6) of the "
                        "same code against the bounds in BENCHMARK.json")
    options = parser.parse_args(argv)
    if options.smoke:
        options.seconds, options.trace = 0.5, "both"
    options.cpu = harness.pin_to_one_cpu()
    # SIGTERM must unwind like Ctrl-C so fleets are torn down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if options.workload:
        return run_single(options)
    if options.selfcheck:
        return selfcheck(options)
    if options.check_noise:
        return check_noise(options)
    report = run_all(options)
    print(json.dumps(report))
    return 0 if report["correct"] else 1
