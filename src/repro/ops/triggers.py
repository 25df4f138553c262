"""Prebuilt operational triggers.

The paper's trigger machinery (:mod:`repro.tracing.triggers`) lets a
user fire arbitrary actions on history-dependent conditions; this
module ships the conditions an *operator* wants armed by default.
Every threshold is a constant of :mod:`repro.ops.checks`, shared with
the doctor's checks:

``ops:p99-regression``
    The ``rpc_rtt`` p99 exceeded ``SLO_FACTOR`` x its recorded
    baseline (source: ``tracer.latency_summary()``) — the same rule
    the ``latency-slo`` check applies.
``ops:ccs-flap``
    The crash-coordinator role changed hands (``CCS_ASSUMED`` /
    ``CCS_RELINQUISHED``) ``CCS_FLAPS`` or more times inside
    ``CCS_FLAP_WINDOW_MS`` — recovery is oscillating instead of
    settling.
``ops:dedup-cache-blowup``
    The broadcast dedup seen-set exceeded ``MAX_DEDUP_ENTRIES``
    entries — stamps are not expiring (retention misconfigured or a
    flood loop).
``ops:host-down``
    A ``FAILURE_DETECTED`` event was recorded (a sibling's circuit
    broke and the failure detector noticed).
``ops:watch-onset``
    The continuous watch loop (:mod:`repro.ops.watch`) recorded a
    check *onset* edge — a health check that passed last sweep fails
    now.  Edge-triggered by construction: the watch loop records one
    ``WATCH_EDGE`` event per transition, never per poll.

Each firing appends an :class:`~repro.ops.checks.OpsAlert` to the
shared alert log, which ``repro doctor`` surfaces through the
``trigger-alerts`` check and ``repro stats`` prints.  The condition
triggers are ``once=True``: an alert is a latched fact for the
operator to clear, not a log line to repeat.  (``ops:watch-onset`` is
the exception — each onset is a distinct incident.)  Nothing here is
armed by default — worlds without :func:`install_ops_triggers`
schedule nothing and stay byte-identical.  Arming is idempotent per
engine: trigger names already present are left untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..perf import PERF
from ..tracing.events import TraceEventType
from ..tracing.triggers import Trigger
from .checks import (CCS_FLAP_WINDOW_MS, CCS_FLAPS, MAX_DEDUP_ENTRIES,
                     OpsAlert, p99_regression)

#: The operation class the p99 trigger judges.
P99_OP = "rpc_rtt"


def _alerting(name: str, alerts: List[OpsAlert],
              detail_fn: Callable[[], str]) -> Callable:
    """The default action: latch one alert on the shared log."""
    def action(event) -> None:
        PERF.ops_alerts_raised += 1
        alerts.append(OpsAlert(name=name, detail=detail_fn(),
                               time_ms=event.time_ms))
    return action


def p99_regression_trigger(summary_fn: Callable[[], Dict[str, dict]],
                           baseline_p99_ms: float,
                           alerts: List[OpsAlert]) -> Trigger:
    """Fire when the ``rpc_rtt`` p99 regresses against the baseline
    (:func:`~repro.ops.checks.p99_regression`)."""
    state = {"breach": ""}

    def predicate(event, history) -> bool:
        breach = p99_regression(P99_OP, summary_fn().get(P99_OP),
                                baseline_p99_ms)
        if breach is None:
            return False
        state["breach"] = breach
        return True

    return Trigger(
        name="ops:p99-regression",
        action=_alerting("ops:p99-regression", alerts,
                         lambda: state["breach"]),
        predicate=predicate, once=True)


def ccs_flap_trigger(alerts: List[OpsAlert]) -> Trigger:
    """Fire when the CCS role changes hands ``CCS_FLAPS`` times inside
    ``CCS_FLAP_WINDOW_MS``."""
    flap_types = (TraceEventType.CCS_ASSUMED,
                  TraceEventType.CCS_RELINQUISHED)
    state = {"count": 0}

    def predicate(event, history) -> bool:
        if event.event_type not in flap_types:
            return False
        count = sum(history.count_in_window(event.time_ms,
                                            CCS_FLAP_WINDOW_MS, flap_type)
                    for flap_type in flap_types)
        state["count"] = count
        return count >= CCS_FLAPS

    return Trigger(
        name="ops:ccs-flap",
        action=_alerting(
            "ops:ccs-flap", alerts,
            lambda: "%d CCS role changes in %.0fms (threshold %d)"
            % (state["count"], CCS_FLAP_WINDOW_MS, CCS_FLAPS)),
        predicate=predicate, once=True)


def dedup_cache_blowup_trigger(size_fn: Callable[[], int],
                               alerts: List[OpsAlert]) -> Trigger:
    """Fire when the broadcast dedup seen-set exceeds
    ``MAX_DEDUP_ENTRIES``."""
    state = {"size": 0}

    def predicate(event, history) -> bool:
        size = size_fn()
        if size <= MAX_DEDUP_ENTRIES:
            return False
        state["size"] = size
        return True

    return Trigger(
        name="ops:dedup-cache-blowup",
        action=_alerting(
            "ops:dedup-cache-blowup", alerts,
            lambda: "dedup seen-set at %d entries (threshold %d)"
            % (state["size"], MAX_DEDUP_ENTRIES)),
        predicate=predicate, once=True)


def host_down_trigger(alerts: List[OpsAlert]) -> Trigger:
    """Fire on the first detected sibling failure."""
    return Trigger(
        name="ops:host-down",
        action=_alerting("ops:host-down", alerts,
                         lambda: "sibling failure detected"),
        event_type=TraceEventType.FAILURE_DETECTED, once=True)


def watch_onset_trigger(alerts: List[OpsAlert]) -> Trigger:
    """Latch one alert per check-onset edge the watch loop records.

    The watch loop records a ``WATCH_EDGE`` event only when a check
    *transitions* (section "Continuous watch", ``docs/OPERATIONS.md``),
    so this trigger fires exactly once per incident onset no matter
    how many sweeps the condition persists.  Deliberately not
    ``once=True``: a second, later incident is a second alert.
    """
    state = {"check": "", "entities": ""}

    def predicate(event, history) -> bool:
        if event.details.get("edge") != "onset":
            return False
        state["check"] = event.details.get("check", "?")
        state["entities"] = ",".join(event.details.get("entities", ()))
        return True

    return Trigger(
        name="ops:watch-onset",
        action=_alerting(
            "ops:watch-onset", alerts,
            lambda: "%s onset (%s)" % (state["check"],
                                       state["entities"] or "-")),
        event_type=TraceEventType.WATCH_EDGE,
        predicate=predicate)


def install_ops_triggers(engine,
                         alerts: Optional[List[OpsAlert]] = None,
                         summary_fn: Optional[Callable] = None,
                         baseline: Optional[Dict[str, float]] = None,
                         dedup_size_fn: Optional[Callable] = None
                         ) -> List[OpsAlert]:
    """Arm the standard operational set on a trigger engine.

    Returns the shared alert log (created if not given) — hand it to
    :func:`repro.ops.doctor.probe_world` so the doctor's
    ``trigger-alerts`` check sees the firings.  The p99 trigger is
    installed only when both a ``summary_fn`` and a baseline p99 for
    ``rpc_rtt`` are available; the dedup trigger only with a
    ``dedup_size_fn``.

    Idempotent per engine: a trigger whose name is already armed is
    skipped, so arming twice (a session helper *and* a watch loop,
    say) never double-registers — and never latches duplicate alerts
    for one condition.
    """
    log = alerts if alerts is not None else []
    installed = {trigger.name for trigger in engine.triggers}

    def arm(trigger) -> None:
        if trigger.name not in installed:
            installed.add(trigger.name)
            engine.add(trigger)

    if summary_fn is not None and baseline and \
            baseline.get(P99_OP) is not None:
        arm(p99_regression_trigger(summary_fn, baseline[P99_OP], log))
    arm(ccs_flap_trigger(log))
    if dedup_size_fn is not None:
        arm(dedup_cache_blowup_trigger(dedup_size_fn, log))
    arm(host_down_trigger(log))
    arm(watch_onset_trigger(log))
    return log
