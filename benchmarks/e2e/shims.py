"""Timing shims: spans recorded from the benchmark's own files.

``install()`` wraps the public functions named in ``SHIMS`` with a span
recorder, in whichever process calls it: the load generator calls it
directly, a serve process gets it through ``traced_serve.py``.  Nothing
in ``src/repro`` is edited; an untraced run never imports this module.

A span is ``(name, start_ns, end_ns, parent, op)``.  Its *self* time is
its duration minus the time its wrapped children cover, so the self
times of one process add up to the wrapped busy time without counting
anything twice.  Clocks are ``time.monotonic_ns`` (CLOCK_MONOTONIC),
which all processes of one machine share, so spans of the client and of
both serve processes line up on one axis.

Every span is also folded into a bucket ``(name, start // BUCKET_NS)``
holding ``[calls, self_ns, total_ns, value]``.  The load generator
keeps the buckets that lie wholly inside its measured window and
divides by the ops it started in those same buckets; that is how a
serve process, which never hears when the window opens, still reports
per-op numbers for the window only.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import monotonic_ns
from typing import Callable, Dict, List, Optional

#: Bucket width.  Short enough that the 0.5 s smoke window holds a few
#: whole buckets, long enough that an op straddling an edge is rare.
BUCKET_NS = 100_000_000

#: The span that counts ops (zero length, recorded by the load loop).
OP_SPAN = "op"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, span_cap: int = 0) -> None:
        #: (name, bucket) -> [calls, self_ns, total_ns, value]
        self.buckets: Dict[tuple, List[int]] = {}
        #: Raw spans for the Chrome trace, at most ``span_cap`` of them.
        self.spans: List[tuple] = []
        self.span_cap = span_cap
        #: Open frames, innermost last: [name, start_ns, child_ns].
        self._stack: List[list] = []
        #: Op the load generator is in (-1 in a serve process; the
        #: merge assigns serve spans to ops by time).
        self.op = -1

    def begin(self, name: str) -> None:
        self._stack.append([name, monotonic_ns(), 0])

    def end(self, value: int = 0, calls: int = 1) -> None:
        end_ns = monotonic_ns()
        name, start_ns, child_ns = self._stack.pop()
        total = end_ns - start_ns
        parent = None
        if self._stack:
            self._stack[-1][2] += total
            parent = self._stack[-1][0]
        self._fold(name, start_ns, end_ns, total - child_ns, value, parent,
                   calls)

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span that is not on the call stack: a wait that started in
        one callback and ended in another (no self time, no parent)."""
        self._fold(name, start_ns, end_ns, 0, 0, None)

    def mark_op(self, op: int) -> None:
        self.op = op
        now = monotonic_ns()
        self._fold(OP_SPAN, now, now, 0, 0, None)

    def _fold(self, name, start_ns, end_ns, self_ns, value, parent,
              calls: int = 1) -> None:
        key = (name, start_ns // BUCKET_NS)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = [0, 0, 0, 0]
        bucket[0] += calls
        bucket[1] += self_ns
        bucket[2] += end_ns - start_ns
        bucket[3] += value
        if len(self.spans) < self.span_cap:
            self.spans.append((name, start_ns, end_ns, parent, self.op))

    def export(self, **extra) -> dict:
        return dict(extra, pid=os.getpid(),
                    buckets=[[name, bucket] + stats for (name, bucket), stats
                             in self.buckets.items()],
                    spans=self.spans)

    def dump(self, path: str, **extra) -> None:
        """Write everything to ``path`` (atomically: the reader must
        never see half a file)."""
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.export(**extra), handle)
        os.replace(path + ".tmp", path)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _sync(tracer: Tracer, name: str, fn: Callable,
          value: Optional[Callable] = None) -> Callable:
    """Span around a plain call; ``value(args, result)`` adds a count
    (bytes, records) to the span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end()
            raise
        tracer.end(value(args, result) if value is not None else 0)
        return result
    return wrapper


class _Steps:
    """Awaitable that drives a coroutine and spans each resumption.

    A coroutine is busy only between two awaits; timing each step
    separately gives its busy time, and keeps spans properly nested
    because one step runs to its next await without interleaving.
    """

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self.tracer, self.name, self.coro = tracer, name, coro

    def __await__(self):
        inner = self.coro.__await__()
        resume, arg = inner.send, None
        calls = 1  # only the first step counts as a call
        while True:
            self.tracer.begin(self.name)
            try:
                awaited = resume(arg)
            except StopIteration as stop:
                return stop.value
            finally:
                self.tracer.end(calls=calls)
                calls = 0
            try:
                arg = yield awaited
                resume = inner.send
            except BaseException as exc:  # cancellation: hand it on
                arg, resume = exc, inner.throw


def _steps(tracer: Tracer, name: str, fn: Callable,
           value: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        return await _Steps(tracer, name, fn(*args, **kwargs))
    return wrapper


def _until_callback(tracer: Tracer, name: str, callback):
    """Span from now until ``callback`` fires (a wait, see ``record``)."""
    start_ns = monotonic_ns()

    def fire(*args):
        tracer.record(name, start_ns, monotonic_ns())
        if callback is not None:
            callback(*args)
    return fire


def _fabric_connect(tracer: Tracer, name: str, fn: Callable,
                    value=None) -> Callable:
    """``AsyncioFabric.connect`` until established or failed."""
    @functools.wraps(fn)
    def wrapper(self, src, dst, service, payload=None, setup_ms=0.0,
                on_established=None, on_failed=None, **kwargs):
        # Exactly one of the two fires (the fabric contract).
        return fn(self, src, dst, service, payload, setup_ms,
                  on_established=_until_callback(tracer, name,
                                                 on_established),
                  on_failed=_until_callback(tracer, name, on_failed),
                  **kwargs)
    return wrapper


def _sibling_request(tracer: Tracer, name: str, fn: Callable,
                     value=None) -> Callable:
    """``RealLpm._request`` until its reply (or timeout) callback."""
    @functools.wraps(fn)
    def wrapper(self, peer, kind, payload, on_reply, *args, **kwargs):
        return fn(self, peer, kind, payload,
                  _until_callback(tracer, name, on_reply), *args, **kwargs)
    return wrapper


def _torn_read(args, _frames) -> int:
    """1 when a ``FrameDecoder.feed`` left a partial frame buffered
    (what ``PERF.real_partial_reads`` counts, but inside the window)."""
    decoder, data = args[0], args[1]
    return 1 if data and decoder.pending_bytes else 0


#: (module, class or None, attribute, span name, wrapper, value)
SHIMS = [
    ("repro.core.client", "PPMClient", "call", "client.call", _sync, None),
    ("repro.core.client", "PPMClient", "connect", "client.connect",
     _sync, None),
    # The client's pump: AsyncioFabric.run_until_true naps through
    # loop.run_until_complete; each such call is one pump.
    ("asyncio.base_events", "BaseEventLoop", "run_until_complete",
     "fabric.pump", _sync, None),
    ("repro.realnet.fabric", "AsyncioFabric", "connect", "fabric.connect",
     _fabric_connect, None),
    ("repro.core.wire", None, "encode", "wire.encode", _sync,
     lambda args, encoded: len(encoded)),
    ("repro.core.wire", None, "decode", "wire.decode", _sync,
     lambda args, message: len(args[0])),
    ("repro.realnet.framing", None, "encode_frame", "framing.encode_frame",
     _sync, None),
    ("repro.realnet.framing", "FrameDecoder", "feed", "framing.feed",
     _sync, _torn_read),
    ("repro.realnet.node", "RealEndpoint", "dispatch", "node.dispatch",
     _sync, None),
    ("repro.realnet.node", "RealNode", "_accept_connection", "node.accept",
     _steps, None),
    ("repro.realnet.registry", "HostRegistry", "read", "registry.read",
     _sync, None),
    ("repro.realnet.pmd", "RealPmd", "_on_bootstrap", "pmd.bootstrap",
     _sync, None),
    ("repro.realnet.lpm", "RealLpm", "__init__", "pmd.lpm_create",
     _sync, None),
    ("repro.realnet.lpm", "RealLpm", "_tool_on_message", "lpm.tool",
     _sync, None),
    ("repro.realnet.lpm", "RealLpm", "_request", "lpm.sibling",
     _sibling_request, None),
    ("repro.realnet.lpm", "RealLpm", "_local_records", "lpm.gather",
     _sync, lambda args, records: len(records)),
    ("repro.localos.backend", "RealBackend", "spawn", "localos.spawn",
     _sync, None),
    ("repro.localos.backend", "RealBackend", "control", "localos.control",
     _sync, None),
    ("repro.localos.backend", "RealBackend", "state_of", "localos.state_of",
     _sync, None),
    ("repro.localos.backend", "RealBackend", "snapshot", "localos.snapshot",
     _sync, None),
    ("repro.localos.backend", "RealBackend", "refresh", "localos.refresh",
     _sync, None),
    ("repro.localos.procfs", None, "read_stat", "procfs.read_stat",
     _sync, None),
    ("repro.localos.procfs", None, "children_map", "procfs.children_map",
     _sync, None),
    ("benchmarks.e2e.workloads", None, "build_world", "world.build",
     _sync, None),
    ("repro.netsim.simulator", "Simulator", "run_until_true",
     "simulator.run", _sync, None),
    ("repro.netsim.network", "Network", "find_path", "network.find_path",
     _sync, None),
    ("repro.core.lpm", "LocalProcessManager", "_handle_sibling",
     "sim_lpm.handle", _sync, None),
    ("repro.core.rpc", "RequestChannel", "send_request", "rpc.request",
     _sync, None),
    ("repro.core.router", "MessageRouter", "route_send", "router.route",
     _sync, None),
    ("repro.core.toolservice", "ToolService", "on_message",
     "toolservice.serve", _sync, None),
    ("repro.core.gather", "GatherEngine", "_finish", "gather.merge",
     _sync, None),
    ("repro.unixsim.kernel", "Kernel", "spawn", "kernel.spawn", _sync, None),
    ("repro.unixsim.kernel", "Kernel", "kill", "kernel.signal", _sync, None),
]


def install(span_cap: int = 0) -> Tracer:
    """Wrap every function in ``SHIMS``; returns the process's tracer."""
    tracer = Tracer(span_cap)
    for module_name, class_name, attr, name, wrap, value in SHIMS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        original = getattr(owner, attr)
        wrapped = wrap(tracer, name, original, value)
        setattr(owner, attr, wrapped)
        if class_name is None:
            # ``from .wire import encode as wire_encode`` made copies of
            # the name in other repro modules; rebind those too.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro."):
                    for key, bound in list(vars(other).items()):
                        if bound is original:
                            setattr(other, key, wrapped)
    return tracer
