"""Always-on performance counters for the hot paths.

The counters are process-global and cheap (plain integer adds on a
slotted singleton), so the instrumented code — message encoding, the
broadcast dedup engine, the event queue — can charge them
unconditionally.  ``repro.perf.PERF`` is the singleton; every counter
is documented in :mod:`repro.perf.counters` and in ``docs/PERF.md``.

The ``benchmarks/perf`` runner resets the counters around each
microbenchmark and records the deltas in ``BENCH_core.json`` so the
repository carries a perf trajectory from PR to PR.

Beyond flat counters, :mod:`repro.perf.spans` adds opt-in causal span
tracing (simulated-time spans with latency histograms, exported to
Chrome trace-event JSON by :mod:`repro.perf.chrometrace`) — see
``docs/OBSERVABILITY.md``.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".counters": ("PERF", "PerfCounters"),
    ".histogram": ("BUCKET_BOUNDS_MS", "LatencyHistogram"),
    ".spans": ("OP_CLASSES", "Span", "SpanTracer", "enable_tracing",
               "disable_tracing"),
    ".chrometrace": ("chrome_trace", "chrome_trace_events",
                     "write_chrome_trace"),
})
