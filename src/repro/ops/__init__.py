"""The operational surface: health checks, the doctor, ops triggers.

``repro.ops`` answers the operator's question the paper motivates —
"is my computation healthy, and if not, where?" — for both backends:

* :mod:`repro.ops.checks` — the backend-neutral check library
  (:class:`WorldView` in, :class:`DoctorReport` with named checks and
  distinct exit codes out) and the operational thresholds, each a
  named constant the checks and triggers share.
* :mod:`repro.ops.doctor` — the probes (netsim world in-process,
  realnet fleet over TCP) and :func:`run_doctor`.
* :mod:`repro.ops.triggers` — prebuilt operational triggers (p99
  regression, CCS flap, dedup-cache blowup,
  retransmission storm, host down, watch onset) over the paper's
  trigger engine.
* :mod:`repro.ops.watch` — the continuous watch loop: interval
  sweeps over either backend and onset/clear edge detection between
  consecutive sweeps.
* :mod:`repro.ops.journal` — the append-only JSONL incident journal
  the watch loop writes, and the ``repro incidents`` rendering
  (timeline + MTTR per check).

Everything here is read-only and opt-in: probing a world never sends
protocol messages on the netsim backend, never perturbs the RNG or
event queue, and the triggers only run once installed.  See
``docs/OPERATIONS.md`` for the runbook.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".checks": ("CHECK_ORDER", "EXIT_CODES", "CheckResult", "DoctorReport",
                "HostHealth", "LpmHealth", "OpsAlert", "OrphanRecord",
                "WorldView", "check_to_dict", "offending_entities",
                "report_to_dict", "run_checks"),
    ".doctor": ("alerts_from_engine", "load_baseline", "probe_fleet",
                "probe_world", "run_doctor", "write_baseline"),
    ".journal": ("IncidentJournal", "incident_records", "mttr_by_check",
                 "read_journal", "render_incidents"),
    ".triggers": ("ccs_flap_trigger", "dedup_cache_blowup_trigger",
                  "host_down_trigger", "install_ops_triggers",
                  "p99_regression_trigger", "retransmission_storm_trigger",
                  "watch_onset_trigger"),
    ".watch": ("DEFAULT_INTERVAL_MS", "RUNBOOK_ANCHORS", "WatchEdge",
               "Watcher", "watch_fleet", "watch_world"),
})
