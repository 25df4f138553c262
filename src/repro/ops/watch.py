"""The continuous watch loop: sweep, diff, journal — on both backends.

``repro doctor`` is a single pull.  This module turns the same
read-only probes into a *loop*: sweep the world on an interval, run
the check library, and compare each check's verdict against the
previous sweep.  What comes out is not a stream of polls but a stream
of **edges**:

onset
    a check that passed last sweep fails now — a new incident.
clear
    a check that was failing passes again — the incident is over; the
    edge carries ``duration_ms`` (onset to clear, what MTTR averages).

Edges — never raw polls — are what feed everything downstream: the
incident journal (:mod:`repro.ops.journal`), the ``WATCH_EDGE`` trace
event that the prebuilt ``ops:watch-onset`` trigger latches on, and
the one-line console narration.  A condition that persists for a
thousand sweeps is one onset, not a thousand alerts; its recovery is
one clear.

The loop keeps the probes' read-only contract.  On **netsim**,
:func:`watch_world` advances the world's own virtual clock between
sweeps (``world.run_for``) and probes in-process — fully
deterministic, so two watches of the same seed produce byte-identical
journals (modulo nothing).  On **realnet**, :func:`watch_fleet` pumps
one long-lived :class:`~repro.realnet.fabric.AsyncioFabric` on
wall-clock intervals and dials each host's ``__status__`` service.
Both drivers converge on one :class:`Watcher` state machine, so the
same drill produces the same incident records on either backend — the
cross-backend conformance test pins that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..perf import PERF
from ..tracing.events import TraceEventType
from .checks import CHECK_ORDER, DoctorReport, offending_entities
from .doctor import probe_fleet, probe_world, run_doctor

#: Default sweep interval: netsim virtual ms / realnet wall ms.
DEFAULT_INTERVAL_MS = 1000.0

#: Where each check's incident sends the operator — anchors into
#: ``docs/OPERATIONS.md``.  Backend-neutral on purpose: journal
#: records must match across backends, and the playbook chapter holds
#: both backends' recovery actions side by side.
RUNBOOK_ANCHORS: Dict[str, str] = {
    "registry-readable": "docs/OPERATIONS.md#fast-recovery-playbook",
    "daemon-liveness": "docs/OPERATIONS.md#fast-recovery-playbook",
    "lpm-liveness": "docs/OPERATIONS.md#fast-recovery-playbook",
    "orphan-processes": "docs/OPERATIONS.md#fast-recovery-playbook",
    "rpc-anomalies": "docs/OPERATIONS.md#fast-recovery-playbook",
    "latency-slo":
        "docs/OPERATIONS.md#the-health-baseline-what-healthy-looks-like",
    "registry-staleness": "docs/OPERATIONS.md#fast-recovery-playbook",
    "trigger-alerts":
        "docs/OPERATIONS.md#keeping-watch-between-doctor-runs",
}


@dataclass(frozen=True)
class WatchEdge:
    """One check transition between two consecutive sweeps."""

    t_ms: float               #: backend clock at the detecting sweep
    check: str                #: check name (``EXIT_CODES`` key)
    edge: str                 #: ``"onset"`` or ``"clear"``
    entities: Tuple[str, ...]  #: who — hosts, user@host, host:pid, ...
    exit_code: int            #: the check's triage code (0 on clear)
    detail: str               #: the check's one-line verdict
    runbook: str              #: anchor into ``docs/OPERATIONS.md``
    duration_ms: Optional[float] = None  #: clear only: onset -> clear


class Watcher:
    """The edge detector: a pure state machine over doctor reports.

    Feed it one :class:`~repro.ops.checks.DoctorReport` per sweep;
    it remembers which checks were failing and returns only the
    transitions.  Side channels are both optional: a ``journal``
    persists edges, and a ``recorder`` turns them into ``WATCH_EDGE``
    trace events (which the ``ops:watch-onset`` trigger consumes).
    ``checks`` narrows the watched set (default: every check); a name
    outside ``CHECK_ORDER`` is a ``ValueError``, since it would watch
    nothing and report a sick world healthy.
    """

    def __init__(self, checks: Optional[Sequence[str]] = None,
                 recorder=None, journal=None) -> None:
        self.checks: Optional[Tuple[str, ...]] = \
            tuple(checks) if checks is not None else None
        unknown = sorted(set(self.checks or ()) - set(CHECK_ORDER))
        if unknown:
            raise ValueError("unknown check(s) %s; choose from %s"
                             % (", ".join(unknown), ", ".join(CHECK_ORDER)))
        self.recorder = recorder
        self.journal = journal
        self.sweeps = 0
        self.edges: List[WatchEdge] = []
        #: failing check -> (onset t_ms, onset entities)
        self._failing: Dict[str, Tuple[float, Tuple[str, ...]]] = {}

    def check_roster(self) -> Tuple[str, ...]:
        return self.checks if self.checks is not None else CHECK_ORDER

    def open_incidents(self) -> Dict[str, float]:
        """Currently-failing checks and their onset times."""
        return {check: onset_t
                for check, (onset_t, _) in self._failing.items()}

    def feed(self, report: DoctorReport, t_ms: float) -> List[WatchEdge]:
        """Diff one sweep's report against the previous; record edges."""
        PERF.watch_sweeps += 1
        self.sweeps += 1
        edges: List[WatchEdge] = []
        for result in report.results:
            if self.checks is not None and result.name not in self.checks:
                continue
            was_failing = result.name in self._failing
            if not result.ok and not was_failing:
                entities = offending_entities(result)
                self._failing[result.name] = (t_ms, entities)
                edges.append(WatchEdge(
                    t_ms=t_ms, check=result.name, edge="onset",
                    entities=entities, exit_code=result.exit_code,
                    detail=result.detail,
                    runbook=RUNBOOK_ANCHORS[result.name]))
            elif result.ok and was_failing:
                onset_t, onset_entities = self._failing.pop(result.name)
                edges.append(WatchEdge(
                    t_ms=t_ms, check=result.name, edge="clear",
                    entities=onset_entities, exit_code=0,
                    detail=result.detail,
                    runbook=RUNBOOK_ANCHORS[result.name],
                    duration_ms=t_ms - onset_t))
        for edge in edges:
            PERF.watch_edges += 1
            self.edges.append(edge)
            if self.journal is not None:
                self.journal.record_edge(edge)
            if self.recorder is not None:
                self.recorder.record(
                    TraceEventType.WATCH_EDGE, host="",
                    check=edge.check, edge=edge.edge,
                    entities=list(edge.entities),
                    exit_code=edge.exit_code)
        return edges


# ----------------------------------------------------------------------
# The two backend drivers
# ----------------------------------------------------------------------

def watch_world(world, interval_ms: float = DEFAULT_INTERVAL_MS,
                max_sweeps: int = 8,
                journal=None, checks: Optional[Sequence[str]] = None,
                alerts=None,
                baseline: Optional[Dict[str, float]] = None,
                on_sweep: Optional[Callable] = None) -> Watcher:
    """Watch an in-process netsim world.

    Each sweep advances the world's *virtual* clock by ``interval_ms``
    (``world.run_for`` — the workload runs; the probe never schedules)
    and then probes in-process, so the whole watch is deterministic:
    same seed, same journal, byte for byte.  ``on_sweep(watcher,
    report, edges)`` runs after every sweep — the CLI uses it for the
    console narration and the dead-host drill uses it to break and
    repair the world mid-watch.
    """
    watcher = Watcher(checks=checks, recorder=world.recorder,
                      journal=journal)
    if journal is not None:
        journal.start("netsim", interval_ms, watcher.check_roster(),
                      t_ms=float(world.sim.now_ms))
    for _ in range(max_sweeps):
        world.run_for(interval_ms)
        view = probe_world(world, alerts=alerts)
        report = run_doctor(view, baseline=baseline)
        edges = watcher.feed(report, t_ms=view.probed_at_ms)
        if on_sweep is not None:
            on_sweep(watcher, report, edges)
    return watcher


def watch_fleet(registry_path: str,
                interval_ms: float = DEFAULT_INTERVAL_MS,
                max_sweeps: int = 8,
                expected_hosts: Optional[Sequence[str]] = None,
                timeout_ms: float = 3000.0,
                journal=None, checks: Optional[Sequence[str]] = None,
                alerts=None,
                baseline: Optional[Dict[str, float]] = None,
                on_sweep: Optional[Callable] = None,
                recorder=None) -> Watcher:
    """Watch a live ``repro serve`` fleet over real TCP.

    One :class:`~repro.realnet.fabric.AsyncioFabric` lives for the
    whole watch (reused across sweeps via the probe's ``fabric``
    parameter); between sweeps the loop is pumped for ``interval_ms``
    of wall-clock time, so in-flight dials keep progressing while the
    watcher waits.  ``recorder`` is optional — pass one (with a
    trigger engine attached) to get ``WATCH_EDGE`` events and
    ``ops:watch-onset`` alerts, exactly as on netsim.
    """
    from ..realnet.fabric import AsyncioFabric
    from ..realnet.registry import HostRegistry

    watcher = Watcher(checks=checks, recorder=recorder,
                      journal=journal)
    fabric = AsyncioFabric(HostRegistry(registry_path),
                           local_host="watch")
    if journal is not None:
        journal.start("realnet", interval_ms, watcher.check_roster(),
                      t_ms=float(fabric.now_ms))
    try:
        for sweep in range(max_sweeps):
            if sweep:
                fabric.run_until_true(lambda: False,
                                      timeout_ms=interval_ms)
            view = probe_fleet(registry_path,
                               expected_hosts=expected_hosts,
                               timeout_ms=timeout_ms, alerts=alerts,
                               fabric=fabric)
            report = run_doctor(view, baseline=baseline)
            edges = watcher.feed(report, t_ms=view.probed_at_ms)
            if on_sweep is not None:
                on_sweep(watcher, report, edges)
    finally:
        fabric.close()
    return watcher
