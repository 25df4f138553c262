"""The counter registry.

One slotted object holds every counter; incrementing an attribute on it
is the cheapest always-on instrumentation Python offers short of doing
nothing.  Counters only ever count *work* (things that happened), never
derived rates — derived numbers belong to whoever reads a snapshot.

Counter inventory
-----------------

Wire layer (``repro.core.wire``, ``repro.ids``):

``encodes_performed``
    Canonical JSON serialisations, one per real frame built; sizing a
    message never encodes it, so the simulator leaves this at 0.
``size_calls``
    Calls to :func:`repro.core.wire.message_size_bytes` (sibling
    messages crossing a link).
``bytes_charged``
    Total bytes the network was told to charge via
    :func:`message_size_bytes` results.
``hmac_computed``
    Broadcast-stamp signature computations (SHA-256 runs).
``hmac_cache_hits``
    Stamp verifications answered from the ``(key, signature, secret)``
    cache without re-hashing.

Broadcast dedup (``repro.core.broadcast``):

``dedup_checks``
    Calls to ``BroadcastEngine.should_accept``.
``dedup_entries_scanned``
    Seen-set entries examined while expiring old stamps.  Before the
    expiry-deque this was the whole seen-set per check; now it is only
    the entries that actually expired (plus one peek).
``dedup_entries_expired``
    Entries dropped because their retention window passed.

Event queue (``repro.netsim``):

``events_scheduled``
    Events pushed onto any event queue.
``events_run``
    Events executed by any simulator in this process.
``events_cancelled``
    Events cancelled before firing.
``heap_compactions``
    Times an event queue rebuilt itself to shed cancelled entries.

Stream delivery (``repro.netsim.stream``), one event per segment:

``stream_batched_deliveries``
    Segment delivery events run (delivered or suppressed).
``stream_segments_drained``
    The same count, kept under both names because the e2e benchmark's
    layer ladder reads each.

Gather merge (``repro.core.gather``):

``gather_merges``
    Gather operations finished (one merge each).
``gather_records_merged``
    Records emitted by those merges (each record is touched once per
    gather level, the linear-merge property).

Routing (``repro.core.routing``):

``route_invalidation_scans``
    Route entries examined while invalidating after a link loss.  With
    the via-host index this counts only routes actually through the
    lost peer; the old full-cache scan examined every cached route.

pmd authentication (``repro.unixsim.pmd``):

``auth_cache_hits``
    Bootstrap authentications answered from the incarnation-keyed
    cache instead of re-running the rhosts/registry checks — the
    login-wave hot path.

Load average (``repro.unixsim.loadavg``):

``loadavg_idle_skips``
    Lazy integrations skipped because the average already equals the
    runnable count (idle or fully-converged hosts), avoiding an exp().

Real network backend (``repro.realnet``):

``real_frames_sent``
    Length-prefixed frames written to real TCP sockets (messages plus
    control frames).
``real_frames_received``
    Complete frames decoded off real TCP sockets.
``real_partial_reads``
    Socket reads that ended mid-frame, leaving bytes buffered in the
    frame decoder until the rest arrived (torn reads).
``real_connects``
    Outbound TCP connections opened by the realnet fabric (bootstrap,
    tool, and sibling channels).
``real_pump_wakeups``
    Predicate re-evaluations after a blocking wait in
    ``AsyncioFabric.run_until_true``: one per fabric delivery (message,
    close, connect outcome, accept, timer) a pumping client woke for.
    A timer-polled pump would show here as wake-ups with no delivery.

Operational surface (``repro.ops``):

``doctor_runs``
    Doctor reports assembled (:func:`repro.ops.doctor.run_doctor`
    invocations, across both backends).
``doctor_checks_failed``
    Individual check failures across those reports (one report with
    three failing checks counts three).
``ops_alerts_raised``
    Operational-trigger firings latched onto an alert log (the
    prebuilt ``ops:*`` triggers' default action).

Continuous watch (``repro.ops.watch``):

``watch_sweeps``
    Probe sweeps a watch loop fed through its edge detector
    (:meth:`repro.ops.watch.Watcher.feed` calls, across both
    backends).
``watch_edges``
    Onset/clear transitions the watch loop detected and journalled
    (each incident contributes one onset and, once recovered, one
    clear).

Span tracing (``repro.perf.spans``):

``spans_started``
    Spans opened (including instants) while a tracer was attached.
``spans_finished``
    Spans closed and retained (or dropped at the retention cap).
``histogram_records``
    Durations recorded into the operation-class latency histograms
    (rpc round-trip, broadcast settle, gather completion, stream
    delivery lag, tool calls).
"""

from __future__ import annotations

_COUNTERS = (
    "encodes_performed",
    "size_calls",
    "bytes_charged",
    "hmac_computed",
    "hmac_cache_hits",
    "dedup_checks",
    "dedup_entries_scanned",
    "dedup_entries_expired",
    "events_scheduled",
    "events_run",
    "events_cancelled",
    "heap_compactions",
    "stream_batched_deliveries",
    "stream_segments_drained",
    "gather_merges",
    "gather_records_merged",
    "route_invalidation_scans",
    "auth_cache_hits",
    "loadavg_idle_skips",
    "real_frames_sent",
    "real_frames_received",
    "real_partial_reads",
    "real_connects",
    "real_pump_wakeups",
    "doctor_runs",
    "doctor_checks_failed",
    "ops_alerts_raised",
    "watch_sweeps",
    "watch_edges",
    "spans_started",
    "spans_finished",
    "histogram_records",
)


class PerfCounters:
    """A bag of process-wide monotonic counters."""

    __slots__ = _COUNTERS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        """The current values as a plain dict (stable key order)."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def delta_since(self, baseline: dict) -> dict:
        """Counter increments since a previous :meth:`snapshot`."""
        return {name: getattr(self, name) - baseline.get(name, 0)
                for name in _COUNTERS}

    def __repr__(self) -> str:
        busy = ["%s=%d" % (name, getattr(self, name))
                for name in _COUNTERS if getattr(self, name)]
        return "PerfCounters(%s)" % (", ".join(busy) or "all zero",)


#: The process-wide singleton every instrumented module charges.
PERF = PerfCounters()
