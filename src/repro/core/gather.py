"""The recursive gather: graph-covering record collection.

Snapshots and rstats both "gather": flood the sibling overlay (with the
section 4 signed-timestamp duplicate suppression), collect every LPM's
local records, and merge child replies on the way back up, assembling
per-host overlay paths that teach the originator routes to distant
hosts.

Merging is keyed on gpid: each LPM emits its local records as a run
sorted by ``(host, pid)``, child replies arrive as already-sorted runs
(inductively), and one stable :func:`sorted` over their concatenation
combines them when the gather level finishes.  Timsort finds the runs
already in place, so this is cheaper by the clock than
:func:`heapq.merge` at every measured shape (EXPERIMENTS.md E2), and
being stable it emits the same list.  Record order inside the reply is
immaterial to every consumer (forests and rstats reports are keyed by
gpid), and a JSON list's encoded length is permutation-invariant, so
the wire byte counts — and therefore the simulator's timing — are
unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..perf import PERF
from ..tracing.events import TraceEventType
from .messages import Message, MsgKind


def _record_key(record: dict):
    return (record["host"], record["pid"])


class GatherOp:
    """State of one in-progress recursive gather."""

    def __init__(self, what: str, reply_fn: Callable) -> None:
        self.what = what
        self.reply_fn = reply_fn
        #: This LPM's own records, one sorted run.
        self.local_run: List[dict] = []
        #: One sorted run per merged child reply.
        self.runs: List[List[dict]] = []
        #: host -> overlay path from here (self's entry inserted first).
        self.paths: dict = {}
        #: Children that never answered (timeout / refusal).
        self.missing: List[str] = []
        #: Hosts reported missing by children, in merge order.
        self.child_missing: List[str] = []
        self.outstanding = 0
        self.merges_pending = 0
        self.finished = False
        #: Open tracing span covering this gather level (None when span
        #: tracing is disabled).
        self.span = None

    @property
    def complete(self) -> bool:
        return self.outstanding == 0 and self.merges_pending == 0


class GatherEngine:
    """Gather state machine for one LPM.

    Uses the LPM's clock and CPU booking for the paper-calibrated
    collect/merge costs, its transport for the sibling fan-out, and its
    router to learn routes from the assembled paths.
    """

    def __init__(self, lpm) -> None:
        self.lpm = lpm

    def start(self, what: str,
              reply_fn: Callable[[dict], None],
              visited: Optional[List[str]] = None,
              broadcast=None, timeout_ms: Optional[float] = None,
              trace_parent=None) -> None:
        """Collect records from this LPM and, recursively, from every
        sibling not yet visited.  ``reply_fn`` receives a dict with
        ``records`` (sorted by gpid), ``paths`` (host -> overlay path
        from here) and ``missing`` (hosts that could not answer)."""
        lpm = self.lpm
        op = GatherOp(what, reply_fn)
        tracer = lpm.fabric.tracer
        if tracer is not None:
            op.span = tracer.start("gather:%s" % what, host=lpm.name,
                                   parent=trace_parent, cat="gather")
        op.paths[lpm.name] = [lpm.name]
        if broadcast is None:
            broadcast = lpm.broadcast.stamp()
        visited = list(visited or [])
        if lpm.name not in visited:
            visited.append(lpm.name)
        targets = [peer for peer in lpm.transport.authenticated()
                   if peer not in visited]
        visited_for_children = visited + targets

        collect_cost = lpm._cpu(
            lpm.cost.snapshot_record_ms * max(len(lpm.records), 1))
        if timeout_ms is None:
            timeout_ms = lpm.config.request_timeout_ms

        def collected() -> None:
            op.local_run = lpm.local_records(what)
            op.outstanding = len(targets)
            if not targets:
                self._finish(op)
                return
            child_parent = None if op.span is None else op.span.ctx()
            for peer in targets:
                lpm.send_request(
                    peer, MsgKind.GATHER,
                    {"what": what, "visited": visited_for_children},
                    lambda reply, peer=peer: self._child_reply(
                        op, peer, reply),
                    timeout_ms=timeout_ms, broadcast=broadcast,
                    trace_parent=child_parent)

        lpm.fabric.schedule(collect_cost, collected)

    def _child_reply(self, op: GatherOp, peer: str,
                     reply: Optional[Message]) -> None:
        if op.finished:
            return
        op.outstanding -= 1
        if reply is None or not reply.payload.get("ok", True):
            op.missing.append(peer)
        else:
            op.merges_pending += 1
            tracer = self.lpm.fabric.tracer
            merge_span = None
            if tracer is not None and op.span is not None:
                merge_span = tracer.start("merge:%s" % peer,
                                          host=self.lpm.name,
                                          parent=op.span.ctx(),
                                          cat="gather")
            merge_cost = self.lpm._cpu_occupy(self.lpm.cost.snapshot_merge_ms)
            self.lpm.fabric.schedule(merge_cost, self._merged, op,
                                     reply.payload, merge_span)
            return
        if op.complete:
            self._finish(op)

    def _merged(self, op: GatherOp, payload: dict,
                merge_span=None) -> None:
        tracer = self.lpm.fabric.tracer
        if merge_span is not None and tracer is not None:
            tracer.finish(merge_span,
                          records=len(payload.get("records", [])))
        if op.finished:
            return
        op.merges_pending -= 1
        op.runs.append(payload.get("records", []))
        for host, path in payload.get("paths", {}).items():
            op.paths.setdefault(host, [self.lpm.name] + list(path))
        op.child_missing.extend(payload.get("missing", []))
        if op.complete:
            self._finish(op)

    def _finish(self, op: GatherOp) -> None:
        if op.finished:
            return
        op.finished = True
        # The runs arrive sorted by (host, pid), which timsort merges in
        # place; stability keeps equal gpids in arrival order.
        records = sorted(
            op.local_run + [record for run in op.runs for record in run],
            key=_record_key)
        PERF.gather_merges += 1
        PERF.gather_records_merged += len(records)
        paths = op.paths
        missing = op.missing + op.child_missing
        # The assembled paths teach this LPM routes to distant hosts
        # (section 4: replies carry the source-destination route).
        for path in paths.values():
            self.lpm.router.learn_path(list(path))
        tracer = self.lpm.fabric.tracer
        if op.span is not None and tracer is not None:
            tracer.finish(op.span, op="gather_complete",
                          records=len(records), missing=len(missing))
        op.reply_fn({"ok": True, "records": records, "paths": paths,
                     "missing": missing})

    def handle_gather(self, message: Message, from_host: str) -> None:
        """Server side: a sibling's GATHER arrived."""
        lpm = self.lpm
        tracer = lpm.fabric.tracer
        # Duplicate-request suppression by signed timestamp (section 4).
        if not lpm.broadcast.should_accept(message.broadcast,
                                           hops=len(message.route)):
            if tracer is not None:
                tracer.instant("dedup:drop", host=lpm.name,
                               parent=message.trace, cat="broadcast",
                               origin=message.origin)
            lpm._trace(TraceEventType.BROADCAST_DUPLICATE,
                       origin=message.origin)
            reply = message.make_reply(MsgKind.GATHER_REPLY, lpm.name,
                                       {"ok": True, "records": [],
                                        "paths": {}, "missing": [],
                                        "duplicate": True})
            lpm.router.route_send(reply)
            return
        if tracer is not None:
            tracer.instant("dedup:accept", host=lpm.name,
                           parent=message.trace, cat="broadcast",
                           origin=message.origin)
        lpm.broadcast.forwards += 1
        lpm._trace(TraceEventType.BROADCAST_FORWARDED,
                   origin=message.origin)

        def finished(result: dict) -> None:
            reply = message.make_reply(MsgKind.GATHER_REPLY, lpm.name,
                                       result)
            lpm.router.route_send(reply)

        self.start(message.payload.get("what", "snapshot"),
                   finished,
                   visited=message.payload.get("visited", []),
                   broadcast=message.broadcast,
                   trace_parent=message.trace)
