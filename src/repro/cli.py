"""Command-line entry point: ``python -m repro``.

Each subcommand is one row of :data:`COMMANDS`: its name, help,
handler and options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .realnet.serve import add_serve_options, serve_from_options


def build_demo_world(seed: int = 1, trace: bool = False):
    """The standard demo network: three hosts, one user.

    ``trace`` attaches a span tracer before the session starts so the
    bootstrap traffic is captured too.
    """
    from .core.ppm import PersonalProcessManager
    from .latency import HostClass
    from .unixsim.world import World
    world = World(seed=seed)
    world.add_host("ucbvax", HostClass.VAX_780)
    world.add_host("ucbarpa", HostClass.VAX_750)
    world.add_host("ucbernie", HostClass.SUN_2)
    world.ethernet()
    world.add_user("lfc", uid=1001)
    ppm = PersonalProcessManager(world, "lfc", "ucbvax",
                                 recovery_hosts=["ucbvax", "ucbarpa"])
    if trace:
        ppm.enable_span_tracing()
    ppm.start()
    return world, ppm


def cmd_demo(args) -> int:
    from .core.shell import PPMShell
    world, ppm = build_demo_world(seed=args.seed)
    shell = PPMShell(ppm)
    script = [
        "create ucbvax coordinator spinner",
        "create ucbarpa solver spinner",
        "create ucbernie solver spinner",
        "create ucbarpa preprocessor worker:2500",
        "snapshot",
        "stop <ucbernie,5>",
        "snapshot",
        "session",
        "rstats",
    ]
    # Let the worker finish before rstats.
    for line in script:
        if line == "rstats":
            world.run_for(5_000.0)
        print("ppm> %s" % line)
        output = shell.execute(line)
        if output:
            print(output)
        print()
    return 0


def cmd_shell(args) -> int:
    from .core.shell import PPMShell
    world, ppm = build_demo_world(seed=args.seed)
    shell = PPMShell(ppm)
    print("PPM interactive shell (simulated network: ucbvax, ucbarpa, "
          "ucbernie; user lfc)")
    print("type 'help' for commands, 'quit' to exit, "
          "'run <ms>' to advance simulated time\n")
    while True:
        print("ppm> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if line in ("quit", "exit"):
            break
        if line.startswith("run "):
            try:
                duration = float(line.split()[1])
            except (IndexError, ValueError):
                print("usage: run <ms>")
                continue
            world.run_for(duration)
            print("advanced to %.1f ms" % (world.now_ms,))
            continue
        output = shell.execute(line)
        if output:
            print(output)
    return 0


def _run_traced_session(seed: int, baseline=None):
    """The ``demo`` script's workload with span tracing on; returns
    ``(world, ppm, alerts)`` with the session's spans and histograms
    collected and the standard operational triggers armed (``alerts``
    is their shared alert log — see :mod:`repro.ops.triggers`)."""
    from .ops import install_ops_triggers
    from .perf import PERF
    from .tracing.triggers import TriggerEngine
    PERF.reset()
    world, ppm = build_demo_world(seed=seed, trace=True)
    lpm = world.lpms[("ucbvax", "lfc")]
    engine = TriggerEngine(world.recorder)
    alerts = install_ops_triggers(
        engine,
        summary_fn=world.sim.tracer.latency_summary,
        baseline=baseline,
        dedup_size_fn=lpm.broadcast.seen_count)
    coordinator = ppm.create_process("coordinator", host="ucbvax")
    ppm.create_process("solver", host="ucbarpa", parent=coordinator)
    remote = ppm.create_process("solver", host="ucbernie",
                                parent=coordinator)
    ppm.snapshot()
    ppm.rstats_report()
    # Exercise the broadcast path too: a LOCATE flood over the sibling
    # graph (the demo's direct links mean tool requests never need one).
    lpm.locate(remote.host, remote.pid, lambda reply: None)
    world.run_for(2_000.0)
    ppm.snapshot()
    return world, ppm, alerts


def cmd_stats(args) -> int:
    world, ppm, alerts = _run_traced_session(args.seed)
    stats = ppm.perf_stats()
    latency = stats.pop("latency_ms", {})
    from .util import format_table

    counter_rows = [[name, "%d" % value]
                    for name, value in sorted(stats.items())
                    if isinstance(value, int) and value]
    counter_rows += [[name, "%.3f" % stats[name]]
                     for name in ("sim_now_ms",) if name in stats]
    print(format_table(["counter", "value"], counter_rows,
                       title="perf counters (demo session, traced)"))
    print()

    def cell(value):
        return "-" if value is None else "%.3f" % value

    latency_rows = [[op,
                     "%d" % block["count"], cell(block["mean_ms"]),
                     cell(block["p50_ms"]), cell(block["p95_ms"]),
                     cell(block["p99_ms"]), cell(block["max_ms"])]
                    for op, block in sorted(latency.items())]
    print(format_table(
        ["operation", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
         "max_ms"],
        latency_rows, title="latency histograms (simulated ms)"))
    print()
    if alerts:
        alert_rows = [[alert.name, "%.3f" % alert.time_ms, alert.detail]
                      for alert in alerts]
        print(format_table(["trigger", "time_ms", "detail"], alert_rows,
                           title="operational alerts"))
    else:
        print("operational alerts: none "
              "(standard ops triggers were armed; see repro doctor)")
    return 0


def cmd_trace(args) -> int:
    from .perf.chrometrace import write_chrome_trace
    world, ppm, alerts = _run_traced_session(args.seed)
    tracer = world.sim.tracer
    count = write_chrome_trace(tracer, args.out)
    print("wrote %d trace events (%d spans, %d dropped) to %s"
          % (count, len(tracer.spans), tracer.dropped, args.out))
    print("open https://ui.perfetto.dev and load the file "
          "(one process row per simulated host)")
    return 0


def cmd_run_real(args) -> int:
    """Stand up N real serve processes and run the demo session over
    real TCP — the same client calls the simulator demo makes."""
    from .perf import PERF
    from .realnet.session import RealSession, launch_hosts

    hosts = ["host%d" % i for i in range(args.hosts)]
    PERF.reset()
    print("launching %d serve processes (budget %.0fs each) ..."
          % (len(hosts), args.budget_s))
    with launch_hosts(hosts, budget_s=args.budget_s) as fleet:
        with RealSession(fleet.registry_path, user="lfc",
                         host_name=hosts[0]) as session:
            if args.trace_spans:
                session.fabric.enable_span_tracing()
            client = session.client.connect()
            info = client.session_info()
            print("connected: lpm on %s for %s"
                  % (info["host"], info["user"]))
            local = client.create_process("coordinator")
            print("created %s (real pid %d on %s)"
                  % (local, local.pid, local.host))
            remote = client.create_process("solver", host=hosts[-1],
                                           parent=local)
            print("created %s across the machine boundary" % (remote,))
            print("locate %s -> %s" % (remote, client.locate(remote)))
            print("stop/continue %s -> state %s"
                  % (remote, client.cont(remote)["state"]))
            forest = client.snapshot(prune=False)
            print("snapshot: %d records from %d hosts%s"
                  % (len(forest.records),
                     len({g.host for g in forest.records}),
                     (", missing %s" % sorted(forest.missing_hosts))
                     if forest.missing_hosts else ""))
            for gpid in (remote, local):
                client.kill(gpid)
            client.close()
    print("teardown complete")
    print("perf: %d connects, %d frames sent, %d frames received, "
          "%d partial reads"
          % (PERF.real_connects, PERF.real_frames_sent,
             PERF.real_frames_received, PERF.real_partial_reads))
    return 0


def cmd_doctor(args) -> int:
    """Health-check a deployment; exit 0 healthy, else the exit code
    of the first failing check in triage order (docs/OPERATIONS.md)."""
    import json

    from .ops import (load_baseline, probe_fleet, probe_world,
                      run_doctor, write_baseline)

    baseline = load_baseline(args.baseline) if args.baseline else None
    if args.registry:
        view = probe_fleet(args.registry,
                           expected_hosts=args.hosts or None,
                           timeout_ms=args.timeout_ms)
    else:
        world, ppm, alerts = _run_traced_session(args.seed,
                                                 baseline=baseline)
        if args.inject == "dead-host":
            # Break the world on purpose (CI uses this to prove the
            # doctor notices): crash a host, then run long enough for
            # the failure detector to record FAILURE_DETECTED.
            world.host("ucbernie").crash()
            world.run_for(10_000.0)
        view = probe_world(world, alerts=alerts)
    report = run_doctor(view, baseline=baseline)
    if view.registry_error is not None and not args.json:
        # Nothing past the registry was probed: one line, not a table
        # of checks judged on an empty fleet.
        print("doctor: registry-readable FAIL — %s (exit %d)"
              % (view.registry_error, report.exit_code))
        return report.exit_code
    if args.write_baseline:
        p99s = write_baseline(args.write_baseline, view)
        print("wrote baseline (%d operation classes) to %s"
              % (len(p99s), args.write_baseline))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _dead_host_drill(world, crash_at: int = 2, reboot_at: int = 5,
                     host: str = "ucbernie"):
    """Break and repair the demo world mid-watch (the CI self-test):
    crash a host after ``crash_at`` sweeps so the next sweep sees the
    onset, reboot it after ``reboot_at`` so a later sweep sees the
    clear."""
    def act(watcher) -> None:
        if watcher.sweeps == crash_at:
            world.host(host).crash()
            print("drill: crashed %s" % host)
        elif watcher.sweeps == reboot_at:
            world.host(host).reboot()
            print("drill: rebooted %s" % host)
    return act


def _check_name(name: str) -> str:
    """``--checks`` values: a doctor check name, or a usage error.

    A ``type=`` rather than ``choices=CHECK_ORDER``: every subcommand,
    ``repro serve`` included, builds the whole parser, and this keeps
    that from importing :mod:`repro.ops`.
    """
    from .ops import CHECK_ORDER
    if name not in CHECK_ORDER:
        raise argparse.ArgumentTypeError(
            "invalid choice: %r (choose from %s)"
            % (name, ", ".join(CHECK_ORDER)))
    return name


def cmd_watch(args) -> int:
    """Run the continuous watch loop (docs/OPERATIONS.md, "Continuous
    watch"): netsim demo world by default, live fleet with
    --registry.  Exits 0 when every watched check is healthy at the
    end, else with the first open incident's triage code."""
    from .ops import (EXIT_CODES, IncidentJournal, load_baseline,
                      watch_fleet, watch_world)

    journal = IncidentJournal(args.journal)
    baseline = load_baseline(args.baseline) if args.baseline else None
    checks = args.checks or None

    def narrate(watcher, report, edges) -> None:
        for edge in edges:
            tail = "-> %s" % edge.runbook if edge.edge == "onset" \
                else "recovered in %.1f ms" % edge.duration_ms
            print("[%10.1f ms] %-5s %s (%s) exit %d %s"
                  % (edge.t_ms, edge.edge.upper(), edge.check,
                     ",".join(edge.entities) or "-", edge.exit_code,
                     tail))

    if args.registry:
        print("watching realnet fleet via %s: every %.0f ms, "
              "%d sweeps" % (args.registry, args.interval_ms,
                             args.max_sweeps))
        watcher = watch_fleet(
            args.registry, interval_ms=args.interval_ms,
            max_sweeps=args.max_sweeps,
            expected_hosts=args.hosts or None,
            timeout_ms=args.timeout_ms, journal=journal,
            checks=checks, baseline=baseline,
            on_sweep=narrate)
    else:
        world, ppm, alerts = _run_traced_session(args.seed,
                                                 baseline=baseline)
        drill = _dead_host_drill(world) \
            if args.inject == "dead-host" else None
        print("watching netsim demo world (seed %d): every %.0f "
              "virtual ms, %d sweeps" % (args.seed, args.interval_ms,
                                         args.max_sweeps))

        def on_sweep(watcher, report, edges) -> None:
            narrate(watcher, report, edges)
            if drill is not None:
                drill(watcher)

        watcher = watch_world(
            world, interval_ms=args.interval_ms,
            max_sweeps=args.max_sweeps, journal=journal,
            checks=checks, alerts=alerts,
            baseline=baseline, on_sweep=on_sweep)

    open_incidents = watcher.open_incidents()
    print("watch complete: %d sweeps, %d edges, %d open incident(s)"
          % (watcher.sweeps, len(watcher.edges), len(open_incidents)))
    if args.journal:
        print("journal: %s (%d records)"
              % (args.journal, len(journal.records)))
    for check in watcher.check_roster():
        if check in open_incidents:
            return EXIT_CODES[check]
    return 0


def cmd_incidents(args) -> int:
    """Render a watch journal: incident timeline plus MTTR per check."""
    import json

    from .ops import mttr_by_check, read_journal, render_incidents

    records = read_journal(args.journal)
    if args.json:
        print(json.dumps({"records": records,
                          "mttr": mttr_by_check(records)},
                         indent=2, sort_keys=True))
    else:
        print(render_incidents(records))
    return 0


def cmd_version(args) -> int:
    print("repro %s — Berkeley PPM reproduction (ICDCS 1986)"
          % (__version__,))
    return 0


def _arg(*flags, **kwargs):
    """One ``add_argument`` call, as a table cell."""
    return flags, kwargs


SEED = (_arg("--seed", type=int, default=1),)

#: ``doctor``'s and ``watch``'s deployment: the netsim demo world by
#: default, a live serve fleet with ``--registry``.
FLEET = (
    _arg("--inject", choices=["dead-host"], default=None,
         help="netsim only: crash ucbernie on purpose (CI self-test; "
              "watch reboots it later)"),
    _arg("--registry", default=None,
         help="check the live fleet sharing this registry file "
              "instead of netsim"),
    _arg("--hosts", nargs="*", default=None,
         help="expected fleet roster (realnet mode; catches hosts "
              "that never published)"),
    _arg("--timeout-ms", type=float, default=3000.0, dest="timeout_ms",
         help="per-host probe timeout (realnet mode)"),
    _arg("--baseline", default=None,
         help="JSON p99 baseline for the latency SLO check (doctor "
              "--write-baseline records one)"),
)

JSON = (_arg("--json", action="store_true",
             help="emit the output as JSON"),)

#: One row per subcommand: ``(name, help, handler, options)``.
#: ``options`` is a tuple of :func:`_arg` cells, or a function that
#: adds them (``repro serve``'s, which
#: :func:`repro.realnet.serve.main` builds from too).
COMMANDS = (
    ("demo", "run a scripted demo session", cmd_demo, SEED),
    ("shell", "interactive PPM shell", cmd_shell, SEED),
    ("stats", "run a traced demo session and print perf stats",
     cmd_stats, SEED),
    ("trace", "run a traced demo session and export Chrome "
              "trace-event JSON", cmd_trace, SEED + (
        _arg("--out", default="trace.json",
             help="output path (default: trace.json)"),)),
    ("serve", "run one real PPM host process (asyncio TCP backend)",
     serve_from_options, add_serve_options),
    ("run-real", "launch N real host processes and run the demo "
                 "session over real TCP", cmd_run_real, (
        _arg("--hosts", type=int, default=3,
             help="number of serve processes (default: 3)"),
        _arg("--budget-s", type=float, default=60.0,
             help="wall-clock budget per serve process"),
        _arg("--trace-spans", action="store_true",
             help="trace client-side spans"))),
    ("doctor", "health-check a deployment: netsim demo world by "
               "default, a live serve fleet with --registry",
     cmd_doctor, SEED + FLEET + (
        _arg("--write-baseline", default=None, dest="write_baseline",
             help="record this run's p99s as the baseline"),) + JSON),
    ("watch", "run the doctor continuously: sweep on an interval, "
              "journal onset/clear edges", cmd_watch, SEED + (
        _arg("--interval-ms", type=float, default=1000.0,
             dest="interval_ms",
             help="sweep interval: virtual ms on netsim, wall ms on "
                  "realnet (default 1000)"),
        _arg("--max-sweeps", type=int, default=8, dest="max_sweeps",
             help="stop after this many sweeps (default 8)"),
        _arg("--journal", default=None,
             help="append incident records (JSONL) here; render "
                  "later with `repro incidents`"),
        _arg("--checks", nargs="*", default=None, type=_check_name,
             help="watch only these checks (default: all)")) + FLEET),
    ("incidents", "render a watch journal: timeline + MTTR per check",
     cmd_incidents, (
        _arg("journal",
             help="JSONL journal written by `repro watch --journal`"),)
     + JSON),
    ("version", "print the version", cmd_version, ()),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser, one subparser per :data:`COMMANDS` row."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the Berkeley Personal Process "
                    "Manager (Cabrera, Sechrest, Cáceres; ICDCS 1986).")
    sub = parser.add_subparsers(dest="command")
    for name, help_text, handler, options in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        if callable(options):
            options(command)
        else:
            for flags, kwargs in options:
                command.add_argument(*flags, **kwargs)
        command.set_defaults(fn=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
