"""The request/reply layer: outstanding requests and their timeouts.

Section 6: "If responses are never received by a handler, they inform
the dispatcher of the failure, which returns a failure message to the
originator of the request."  This module owns everything about one
remote conversation: req-id allocation, the pending table, the timeout
timer and reply correlation.  Requests travel on section 3's
authenticated circuits, which deliver each message once and in order,
so the layer neither retransmits nor deduplicates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConnectionClosedError
from .messages import Message, MsgKind


class PendingRequest:
    """Bookkeeping for one outstanding remote request."""

    def __init__(self, on_reply: Callable, timer, handler) -> None:
        self.on_reply = on_reply
        self.timer = timer
        self.handler = handler


class RequestChannel:
    """One LPM's view of every conversation it is waiting on.

    The LPM injects itself for the clock, the handler pool, the
    transport (link lookup and sends), and the router (cached routes,
    reply routing); this layer contains no socket code at all.
    """

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.pending: Dict[int, PendingRequest] = {}
        self._req_counter = 0

    def next_req_id(self) -> int:
        self._req_counter += 1
        return self._req_counter

    def register(self, req_id: int, on_reply: Callable, timer,
                 handler=None) -> PendingRequest:
        """Track an externally-built conversation (e.g. a LOCATE whose
        replies come back over the broadcast's recorded route)."""
        pending = PendingRequest(on_reply, timer, handler)
        self.pending[req_id] = pending
        return pending

    def cancel(self, req_id: int) -> Optional[PendingRequest]:
        pending = self.pending.pop(req_id, None)
        if pending is not None:
            self.lpm.sim.cancel(pending.timer)
        return pending

    # ------------------------------------------------------------------
    # Outbound requests
    # ------------------------------------------------------------------

    def send_request(self, dest: str, kind: MsgKind, payload: dict,
                     on_reply: Callable[[Optional[Message]], None],
                     timeout_ms: Optional[float] = None,
                     route: Optional[List[str]] = None,
                     broadcast=None, use_handler: bool = True,
                     trace_parent=None) -> None:
        """Send one request toward ``dest``; ``on_reply`` gets the reply
        message, or None on timeout / unreachability.

        Blocking conversations occupy a handler process (section 6).
        ``trace_parent`` is an optional span context the round-trip span
        joins when span tracing is enabled.
        """
        lpm = self.lpm
        tracer = lpm.sim.tracer
        span = None
        if tracer is not None:
            # Opened before the unreachable-destination early returns so
            # every outcome (reply, timeout, no route, dead link) closes
            # the round-trip span and lands in the rpc_rtt histogram.
            span = tracer.start("rpc:%s" % kind.value, host=lpm.name,
                                parent=trace_parent, cat="rpc", dest=dest)
            inner_reply = on_reply

            def on_reply(reply, _inner=inner_reply, _span=span):
                tracer.finish(
                    _span, op="rpc_rtt",
                    outcome="ok" if reply is not None else "failed")
                _inner(reply)
        if timeout_ms is None:
            timeout_ms = lpm.config.request_timeout_ms
        if route is None:
            route = lpm.router.outbound_route(dest)
            if route is None:
                on_reply(None)
                return
        next_hop = route[1] if len(route) > 1 else dest
        link = lpm.transport.links.get(next_hop)
        if link is None or not link.endpoint.open:
            on_reply(None)
            return

        handler, handler_cost = lpm.pool.acquire() if use_handler \
            else (None, 0.0)
        req_id = self.next_req_id()
        message = Message(kind=kind, req_id=req_id, origin=lpm.name,
                          user=lpm.user, payload=payload,
                          route=list(route), final_dest=dest,
                          broadcast=broadcast,
                          trace=None if span is None else span.ctx())

        def timed_out() -> None:
            pending = self.pending.pop(req_id, None)
            if pending is None:
                return
            lpm.pool.release(pending.handler)
            pending.on_reply(None)

        timer = lpm.sim.schedule(timeout_ms + lpm._cpu(handler_cost),
                                 timed_out)
        self.pending[req_id] = PendingRequest(on_reply, timer, handler)

        def transmit() -> None:
            if req_id not in self.pending:
                return
            try:
                lpm.transport.send_on_link(link, message)
            except ConnectionClosedError:
                failed = self.cancel(req_id)
                if failed is not None:
                    lpm.pool.release(failed.handler)
                    failed.on_reply(None)

        if handler_cost:
            lpm.sim.schedule(lpm._cpu(handler_cost), transmit)
        else:
            transmit()

    # ------------------------------------------------------------------
    # Reply correlation
    # ------------------------------------------------------------------

    def handle_reply(self, message: Message) -> None:
        pending = self.pending.pop(message.reply_to, None)
        if pending is None:
            return
        lpm = self.lpm
        lpm.sim.cancel(pending.timer)
        lpm.pool.release(pending.handler)
        # Route learning from reply routes (section 4).
        lpm.router.learn_from_reply(message)
        pending.on_reply(message)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def cancel_all(self) -> None:
        for pending in list(self.pending.values()):
            self.lpm.sim.cancel(pending.timer)
        self.pending.clear()
