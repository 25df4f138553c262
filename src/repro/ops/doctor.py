"""The doctor: probe a running world, run the checks, report.

Two probes feed the one check library (:mod:`repro.ops.checks`):

* :func:`probe_world` inspects an in-process netsim :class:`World`
  directly — LPM registry, kernel process tables, sibling graphs,
  perf counters, latency histograms.
* :func:`probe_fleet` inspects a live ``repro serve`` fleet over real
  TCP, by dialling each registry entry's ``__status__`` service
  through the same :class:`~repro.realnet.fabric.AsyncioFabric` the
  protocol stack uses (the PR 7 seam), and scanning ``/proc`` for
  orphaned real children.

Both return a :class:`~repro.ops.checks.WorldView`; hand it to
:func:`run_doctor` for the exit-code-bearing report.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..errors import RegistryError
from ..perf import PERF
from .checks import (
    DoctorReport,
    HostHealth,
    LpmHealth,
    OpsAlert,
    OrphanRecord,
    WorldView,
    run_checks,
)

# ----------------------------------------------------------------------
# The netsim probe
# ----------------------------------------------------------------------

def probe_world(world,
                alerts: Optional[List[OpsAlert]] = None) -> WorldView:
    """Build a :class:`WorldView` from an in-process netsim world.

    ``alerts`` is an explicit alert log (see
    :func:`repro.ops.triggers.install_ops_triggers`).
    """
    hosts: Dict[str, HostHealth] = {}
    for name, host in sorted(world.hosts.items()):
        daemon = bool(host.up and host.inetd.proc.alive and
                      (host.pmd_daemon is None or
                       host.pmd_daemon.proc.alive))
        detail = "" if host.up else "crashed"
        hosts[name] = HostHealth(name=name, up=bool(host.up),
                                 daemon=daemon, detail=detail)

    lpms: List[LpmHealth] = []
    for (host_name, user), lpm in sorted(world.lpms.items()):
        lpms.append(LpmHealth(
            host=host_name, user=user, alive=bool(lpm.is_running()),
            pending_requests=len(lpm.rpc.pending)))

    orphans = _sim_orphans(world)

    tracer = world.sim.tracer
    return WorldView(
        backend="netsim",
        expected_hosts=tuple(sorted(world.hosts)),
        hosts=hosts,
        lpms=lpms,
        orphans=orphans,
        counters=PERF.snapshot(),
        latency=tracer.latency_summary() if tracer is not None else {},
        alerts=list(alerts) if alerts else [],
        probed_at_ms=float(world.sim.now_ms),
    )


def _sim_orphans(world) -> List[OrphanRecord]:
    """Live user processes on hosts where that user has no live LPM."""
    orphans: List[OrphanRecord] = []
    for host_name, host in sorted(world.hosts.items()):
        if not host.up:
            continue
        users_by_uid = {host.users.require(name).uid: name
                        for name in host.users.names()}
        for proc in host.kernel.procs:
            if not proc.alive or proc.uid not in users_by_uid:
                continue
            user = users_by_uid[proc.uid]
            lpm = world.lpms.get((host_name, user))
            if lpm is None or not lpm.is_running():
                orphans.append(OrphanRecord(
                    host=host_name, user=user, pid=proc.pid,
                    command=proc.command))
    return orphans


# ----------------------------------------------------------------------
# The realnet probe
# ----------------------------------------------------------------------

def probe_fleet(registry_path: str,
                expected_hosts: Optional[Sequence[str]] = None,
                timeout_ms: float = 3000.0,
                alerts: Optional[List[OpsAlert]] = None,
                fabric=None) -> WorldView:
    """Build a :class:`WorldView` from a live ``repro serve`` fleet.

    The socket work lives in :func:`repro.realnet.session.probe_fleet`
    (real-network APIs are confined to ``repro.realnet``); this
    function only reshapes its findings into the check library's
    view.  A published host that no longer answers is *both* a daemon
    failure and a stale registry entry — exactly what a SIGKILLed
    serve process leaves behind.  ``fabric`` is passed through to the
    socket layer so a watch loop can reuse one dial fabric across
    sweeps.  A registry file that does not parse probes nothing: the
    view carries the reason for the ``registry-readable`` check.
    """
    from ..realnet.session import probe_fleet as _probe

    try:
        raw = _probe(registry_path, expected_hosts=expected_hosts,
                     timeout_ms=timeout_ms, fabric=fabric)
    except RegistryError as exc:
        return WorldView(backend="realnet", registry_error=str(exc),
                         expected_hosts=tuple(sorted(expected_hosts
                                                     or ())),
                         counters=PERF.snapshot(),
                         alerts=list(alerts) if alerts else [],
                         probed_at_ms=None if fabric is None
                         else float(fabric.now_ms))
    hosts: Dict[str, HostHealth] = {}
    lpms: List[LpmHealth] = []
    stale: List[str] = []
    for name, status in sorted(raw["statuses"].items()):
        ok = bool(status.get("ok"))
        hosts[name] = HostHealth(
            name=name, up=ok, daemon=ok,
            detail="" if ok else status.get("error", "no answer"))
        if not ok and name in raw["registry"]:
            stale.append(name)
        for service in status.get("services", ()):
            if service.startswith("lpm:"):
                lpms.append(LpmHealth(host=name,
                                      user=service.split(":")[1],
                                      alive=True))
    view = WorldView(
        backend="realnet",
        expected_hosts=tuple(sorted(raw["statuses"])),
        hosts=hosts,
        lpms=lpms,
        orphans=[OrphanRecord(host=o.get("host", "?"), user="",
                              pid=o["pid"], command=o["command"])
                 for o in raw.get("orphans", ())],
        counters=PERF.snapshot(),
        latency={},
        registry_entries=dict(raw["registry"]),
        stale_entries=stale,
        alerts=list(alerts) if alerts else [],
        probed_at_ms=raw.get("probed_at_ms"),
    )
    return view


# ----------------------------------------------------------------------
# Running the checks; baselines
# ----------------------------------------------------------------------

def run_doctor(view: WorldView,
               baseline: Optional[Dict[str, float]] = None
               ) -> DoctorReport:
    """Run every check; counts the run (and failures) in ``PERF``."""
    report = run_checks(view, baseline=baseline)
    PERF.doctor_runs += 1
    PERF.doctor_checks_failed += len(report.failing)
    return report


def load_baseline(path: str) -> Dict[str, float]:
    """Read a recorded p99 baseline (op class -> p99 ms)."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    block = raw.get("p99_ms", raw)
    return {str(op): float(value) for op, value in block.items()
            if value is not None}


def write_baseline(path: str, view: WorldView) -> Dict[str, float]:
    """Record the view's current p99s as the SLO baseline."""
    p99s = {op: block.get("p99_ms")
            for op, block in sorted(view.latency.items())
            if block.get("count", 0) > 0 and
            block.get("p99_ms") is not None}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"p99_ms": p99s}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return p99s
