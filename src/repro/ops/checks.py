"""The health-check library: pure functions over a :class:`WorldView`.

The doctor's architecture mirrors the PR 7 fabric seam: everything
backend-specific lives in a *probe* (:mod:`repro.ops.doctor` for netsim
worlds, :func:`repro.realnet.session.probe_fleet` for live serve
fleets), and the probes converge on one backend-neutral
:class:`WorldView`.  Every check in this module consumes only that
view, so the same checks — and the same verdict names, details, and
exit codes — serve both backends.

Checks are ordered by the triage runbook (``docs/OPERATIONS.md``):
the host registry first (nothing else can be probed without it), then
the daemon layer, then LPMs and their processes, then outstanding
obligations (RPC), then throttling/SLOs.  The doctor's exit code is
the code of the *first* failing check in that order, so a non-zero
exit always names the highest-priority broken layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Check name -> distinct process exit code, in triage order.  0 is
#: reserved for "healthy"; the codes are part of the CLI contract
#: (scripts and CI match on them) and must never be renumbered.  13
#: and 14 are retired (they were ``overlay-degree`` and
#: ``broadcast-coverage``) and must not be reused.
EXIT_CODES = {
    "registry-readable": 19,
    "daemon-liveness": 10,
    "lpm-liveness": 11,
    "orphan-processes": 12,
    "rpc-anomalies": 15,
    "latency-slo": 16,
    "registry-staleness": 17,
    "trigger-alerts": 18,
}

#: The triage order (dict order is insertion order, but be explicit).
CHECK_ORDER = tuple(EXIT_CODES)

# Operational thresholds, sized so a healthy demo session passes.  The
# checks here and the triggers in :mod:`repro.ops.triggers` read these
# names; each number is defined nowhere else.

#: Outstanding requests on any one LPM beyond this is an anomaly.
MAX_PENDING_REQUESTS = 64
#: A p99 beyond this factor times its recorded baseline regresses.
SLO_FACTOR = 2.0
#: Histogram classes with fewer samples than this are not judged.
SLO_MIN_COUNT = 5
#: This many crash-coordinator role changes inside the window below
#: are a flap.
CCS_FLAPS = 3
CCS_FLAP_WINDOW_MS = 60_000.0
#: Broadcast dedup seen-set entries beyond this are a blowup.
MAX_DEDUP_ENTRIES = 10_000


# ----------------------------------------------------------------------
# The backend-neutral view the probes produce
# ----------------------------------------------------------------------

@dataclass
class HostHealth:
    """One host as the probe saw it."""

    name: str
    up: bool
    daemon: bool          #: inetd/pmd (netsim) or serve process (realnet)
    detail: str = ""


@dataclass
class LpmHealth:
    """One (host, user) LPM as the probe saw it."""

    host: str
    user: str
    alive: bool
    pending_requests: int = 0


@dataclass
class OrphanRecord:
    """A live process no live LPM administers."""

    host: str
    user: str
    pid: int
    command: str


@dataclass
class OpsAlert:
    """One operational-trigger firing surfaced to the doctor."""

    name: str
    detail: str
    time_ms: float


@dataclass
class WorldView:
    """Everything the checks need, backend-neutral."""

    backend: str                                 #: "netsim" | "realnet"
    expected_hosts: Tuple[str, ...] = ()
    hosts: Dict[str, HostHealth] = field(default_factory=dict)
    lpms: List[LpmHealth] = field(default_factory=list)
    orphans: List[OrphanRecord] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: op class -> histogram summary (from ``tracer.latency_summary()``).
    latency: Dict[str, dict] = field(default_factory=dict)
    #: realnet only: host -> (address, port) as published.
    registry_entries: Dict[str, tuple] = field(default_factory=dict)
    #: realnet only: published hosts whose listener no longer answers.
    stale_entries: List[str] = field(default_factory=list)
    #: realnet only: why the registry file could not be read (it
    #: exists but does not parse); None when it was read.
    registry_error: Optional[str] = None
    alerts: List[OpsAlert] = field(default_factory=list)
    #: When the probe sampled the world, on the backend clock
    #: (simulated ms on netsim, fabric wall-clock ms on realnet).
    #: Watch journal records and ``doctor --json`` share this field.
    probed_at_ms: Optional[float] = None


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    """One check's verdict."""

    name: str
    ok: bool
    detail: str
    data: dict = field(default_factory=dict)
    #: Wall-clock cost of evaluating this check (set by
    #: :func:`run_checks`; diagnostics only — never deterministic).
    duration_ms: Optional[float] = None

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else EXIT_CODES[self.name]


class DoctorReport:
    """The ordered check results plus the exit-code contract."""

    def __init__(self, backend: str, results: Sequence[CheckResult],
                 view: Optional[WorldView] = None) -> None:
        self.backend = backend
        self.results = list(results)
        self.view = view

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failing(self) -> List[CheckResult]:
        return [result for result in self.results if not result.ok]

    @property
    def exit_code(self) -> int:
        """0 when healthy; else the first failing check's code, in
        triage order — the highest-priority broken layer names the
        exit."""
        for result in self.results:
            if not result.ok:
                return result.exit_code
        return 0

    def to_dict(self) -> dict:
        """The report as a plain dict (``repro doctor --json``)."""
        view = self.view
        return {
            "backend": self.backend,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "probed_at_ms": view.probed_at_ms if view is not None else None,
            "checks": [check_to_dict(r) for r in self.results],
        }

    def render(self) -> str:
        from ..util import format_table
        rows = [[result.name, "ok" if result.ok else "FAIL",
                 result.detail] for result in self.results]
        table = format_table(
            ["check", "status", "detail"], rows,
            title="doctor report (%s backend)" % (self.backend,))
        if self.ok:
            verdict = "doctor: healthy (exit 0)"
        else:
            first = self.failing[0]
            verdict = ("doctor: UNHEALTHY — first failing check "
                       "'%s' (exit %d)" % (first.name, first.exit_code))
        return "%s\n%s" % (table, verdict)


# ----------------------------------------------------------------------
# Serialization (doctor --json)
# ----------------------------------------------------------------------

def check_to_dict(result: CheckResult) -> dict:
    """One check as a plain dict: the per-check schema of
    ``repro doctor --json`` (:meth:`DoctorReport.to_dict`).  A watch
    journal's incident record is its own schema
    (:meth:`repro.ops.journal.IncidentJournal.record_edge`)."""
    return {"name": result.name, "ok": result.ok,
            "detail": result.detail, "exit_code": result.exit_code,
            "duration_ms": result.duration_ms, "data": result.data}


def offending_entities(result: CheckResult) -> Tuple[str, ...]:
    """The entities a failing check blames, as stable display strings.

    This is what a watch journal record carries in its ``entities``
    field — the *who*, separated from the free-text ``detail``, so an
    incident for host ``gamma`` is machine-matchable on both backends.
    Passing checks (and checks without per-entity data) yield ``()``.
    """
    data = result.data
    if result.name == "daemon-liveness":
        return tuple(sorted(set(data.get("missing", ())) |
                            set(data.get("down", ())) |
                            set(data.get("daemon_dead", ()))))
    if result.name == "lpm-liveness":
        return tuple(sorted("%s@%s" % (user, host)
                            for host, user in data.get("dead", ())))
    if result.name == "orphan-processes":
        return tuple(sorted("%s:%d" % (host, pid) for host, _user, pid,
                            _command in data.get("orphans", ())))
    if result.name == "registry-staleness":
        return tuple(data.get("stale", ()))
    if result.name == "trigger-alerts":
        return tuple(sorted({name for name, _detail, _time_ms
                             in data.get("alerts", ())}))
    return ()


# ----------------------------------------------------------------------
# The checks, in triage order
# ----------------------------------------------------------------------

def check_registry_readable(view: WorldView) -> CheckResult:
    """The realnet host registry parses; without it no host can be
    found, so every later check would judge an empty fleet."""
    if view.registry_error is not None:
        return CheckResult("registry-readable", False,
                           view.registry_error)
    if view.backend != "realnet":
        return CheckResult("registry-readable", True,
                           "no registry on the %s backend"
                           % (view.backend,))
    return CheckResult("registry-readable", True,
                       "%d registry entries read"
                       % len(view.registry_entries))


def check_daemon_liveness(view: WorldView) -> CheckResult:
    """Every expected host is up and its daemon layer answers."""
    missing = [h for h in view.expected_hosts if h not in view.hosts]
    down = [h.name for h in view.hosts.values() if not h.up]
    dead_daemon = [h.name for h in view.hosts.values()
                   if h.up and not h.daemon]
    problems = []
    if missing:
        problems.append("unprobed: %s" % ", ".join(sorted(missing)))
    if down:
        problems.append("down: %s" % ", ".join(sorted(down)))
    if dead_daemon:
        problems.append("daemon dead: %s" % ", ".join(sorted(dead_daemon)))
    if problems:
        return CheckResult("daemon-liveness", False, "; ".join(problems),
                           {"missing": sorted(missing),
                            "down": sorted(down),
                            "daemon_dead": sorted(dead_daemon)})
    return CheckResult("daemon-liveness", True,
                       "%d/%d hosts up, daemons answering"
                       % (len(view.hosts), len(view.expected_hosts)))


def check_lpm_liveness(view: WorldView) -> CheckResult:
    """Every registered LPM is actually running."""
    dead = [lpm for lpm in view.lpms if not lpm.alive]
    if dead:
        detail = "dead LPMs: %s" % ", ".join(
            sorted("%s@%s" % (lpm.user, lpm.host) for lpm in dead))
        return CheckResult("lpm-liveness", False, detail,
                           {"dead": [(l.host, l.user) for l in dead]})
    if not view.lpms:
        return CheckResult("lpm-liveness", True,
                           "no LPMs registered (idle world)")
    return CheckResult("lpm-liveness", True,
                       "%d LPM(s) alive" % len(view.lpms))


def check_orphans(view: WorldView) -> CheckResult:
    """No live process lacks a live LPM administering it."""
    if view.orphans:
        sample = ", ".join("%s pid %d (%s)" % (o.host, o.pid, o.command)
                           for o in view.orphans[:4])
        extra = "" if len(view.orphans) <= 4 else \
            " (+%d more)" % (len(view.orphans) - 4)
        return CheckResult(
            "orphan-processes", False,
            "%d orphaned: %s%s" % (len(view.orphans), sample, extra),
            {"orphans": [(o.host, o.user, o.pid, o.command)
                         for o in view.orphans]})
    return CheckResult("orphan-processes", True, "no orphaned processes")


def check_rpc_anomalies(view: WorldView) -> CheckResult:
    """No LPM has an outstanding-request backlog."""
    worst = max(view.lpms, key=lambda l: l.pending_requests,
                default=None)
    pending = worst.pending_requests if worst is not None else 0
    if pending > MAX_PENDING_REQUESTS:
        return CheckResult(
            "rpc-anomalies", False,
            "%d pending requests on %s@%s (threshold %d)"
            % (pending, worst.user, worst.host, MAX_PENDING_REQUESTS),
            {"pending": pending})
    return CheckResult("rpc-anomalies", True,
                       "max %d pending" % (pending,))


def p99_regression(op: str, block: Optional[dict],
                   baseline_p99_ms: Optional[float]) -> Optional[str]:
    """The one p99-versus-baseline rule, shared by the ``latency-slo``
    check and the ``ops:p99-regression`` trigger: a description of the
    breach when ``op``'s p99 exceeds ``SLO_FACTOR`` x its baseline over
    at least ``SLO_MIN_COUNT`` samples, else None.  A missing or
    non-positive baseline judges nothing."""
    if not block or baseline_p99_ms is None or baseline_p99_ms <= 0:
        return None
    if block.get("count", 0) < SLO_MIN_COUNT:
        return None
    p99 = block.get("p99_ms")
    if p99 is None or p99 <= SLO_FACTOR * baseline_p99_ms:
        return None
    return "%s p99 %.1fms > %.1fx baseline %.1fms" % (
        op, p99, SLO_FACTOR, baseline_p99_ms)


def check_latency_slo(view: WorldView,
                      baseline: Optional[Dict[str, float]] = None
                      ) -> CheckResult:
    """Per-operation p99 stays within ``SLO_FACTOR`` of the recorded
    baseline (see ``repro doctor --write-baseline``)."""
    if not baseline:
        return CheckResult("latency-slo", True,
                           "no baseline recorded; SLO check skipped")
    regressions = []
    for op, budget_p99 in sorted(baseline.items()):
        breach = p99_regression(op, view.latency.get(op), budget_p99)
        if breach is not None:
            regressions.append(breach)
    if regressions:
        return CheckResult("latency-slo", False,
                           "; ".join(regressions),
                           {"regressions": regressions})
    return CheckResult("latency-slo", True,
                       "p99 within %.1fx of baseline for %d op class(es)"
                       % (SLO_FACTOR, len(baseline)))


def check_registry_staleness(view: WorldView) -> CheckResult:
    """Every published realnet registry entry still answers."""
    if view.backend != "realnet":
        return CheckResult("registry-staleness", True,
                           "no registry on the %s backend"
                           % (view.backend,))
    if view.stale_entries:
        return CheckResult(
            "registry-staleness", False,
            "stale entries (published but not answering): %s"
            % ", ".join(sorted(view.stale_entries)),
            {"stale": sorted(view.stale_entries)})
    return CheckResult("registry-staleness", True,
                       "%d registry entries, all answering"
                       % len(view.registry_entries))


def check_trigger_alerts(view: WorldView) -> CheckResult:
    """No operational trigger has fired."""
    if view.alerts:
        sample = "; ".join("%s (%s)" % (a.name, a.detail)
                           for a in view.alerts[:3])
        extra = "" if len(view.alerts) <= 3 else \
            " (+%d more)" % (len(view.alerts) - 3)
        return CheckResult(
            "trigger-alerts", False,
            "%d alert(s): %s%s" % (len(view.alerts), sample, extra),
            {"alerts": [(a.name, a.detail, a.time_ms)
                        for a in view.alerts]})
    return CheckResult("trigger-alerts", True,
                       "no operational triggers fired")


#: name -> function; iterated in CHECK_ORDER by :func:`run_checks`.
_CHECK_FNS = {
    "registry-readable": check_registry_readable,
    "daemon-liveness": check_daemon_liveness,
    "lpm-liveness": check_lpm_liveness,
    "orphan-processes": check_orphans,
    "rpc-anomalies": check_rpc_anomalies,
    "latency-slo": check_latency_slo,
    "registry-staleness": check_registry_staleness,
    "trigger-alerts": check_trigger_alerts,
}


def run_checks(view: WorldView,
               baseline: Optional[Dict[str, float]] = None
               ) -> DoctorReport:
    """Run every check against the view, in triage order."""
    results = []
    for name in CHECK_ORDER:
        fn = _CHECK_FNS[name]
        started = time.perf_counter()
        if name == "latency-slo":
            result = fn(view, baseline)
        else:
            result = fn(view)
        result.duration_ms = (time.perf_counter() - started) * 1000.0
        results.append(result)
    return DoctorReport(view.backend, results, view=view)
