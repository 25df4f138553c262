"""The request/reply layer: outstanding requests, retries, exactly-once.

Section 6: "If responses are never received by a handler, they inform
the dispatcher of the failure, which returns a failure message to the
originator of the request."  This module owns everything about one
remote conversation: req-id allocation, the pending table, timeout and
LPM-level retransmission timers, reply correlation, and the server-side
exactly-once cache that makes the datagram transport's at-least-once
retries safe for side-effecting requests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConnectionClosedError
from ..perf import PERF
from .expiry import ExpiryMap
from .messages import Message, MsgKind
from .router import ack_kind_for

#: Sentinel in the exactly-once cache while the first execution of a
#: request is still running (duplicates arriving meanwhile are dropped;
#: the original's reply is on its way).
REQUEST_PENDING = object()

#: Side-effecting request kinds covered by LPM-level retransmission and
#: the server's exactly-once cache.  Broadcast-stamped kinds must never
#: be retried (the dedup seen-set would swallow the retry), and the CCS
#: kinds have their own recovery-layer retry logic.
RETRIED_KINDS = frozenset({MsgKind.CONTROL, MsgKind.CREATE})


class PendingRequest:
    """Bookkeeping for one outstanding remote request."""

    def __init__(self, on_reply: Callable, timer, handler) -> None:
        self.on_reply = on_reply
        self.timer = timer
        self.handler = handler
        #: At-least-once retransmission timer (datagram transport only).
        self.retry_timer = None


class RequestChannel:
    """One LPM's view of every conversation it is waiting on.

    The LPM injects itself for the clock, the handler pool, the
    transport (link lookup and sends), and the router (cached routes,
    reply routing); this layer contains no socket code at all.
    """

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.pending: Dict[int, PendingRequest] = {}
        #: Exactly-once guard for side-effecting sibling requests: maps
        #: (origin, user, req_id) to the cached outcome so an LPM-level
        #: retransmission re-sends the reply instead of re-running the
        #: side effect.  Retained well past the client's own timeout.
        self._done_requests = ExpiryMap(
            lpm.config.request_timeout_ms * 4, lambda: lpm.sim.now_ms)
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
            self.lpm.sim.cancel(pending.retry_timer)
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
            lpm.sim.cancel(pending.retry_timer)
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

        # Datagrams give no delivery guarantee once the endpoint's own
        # ARQ budget is spent, so side-effecting requests carry an
        # LPM-level at-least-once retransmission; the receiving LPM's
        # exactly-once cache (see ``note_request_started``) keeps the
        # end-to-end semantics exactly-once.  The retry period spans a
        # full endpoint ARQ window so it only fires when the transport
        # genuinely gave up (or the reply itself was lost).
        if lpm.config.transport == "datagram" and broadcast is None \
                and kind in RETRIED_KINDS:
            self._arm_retry(req_id, next_hop, message)

    def _arm_retry(self, req_id: int, next_hop: str,
                   message: Message) -> None:
        pending = self.pending.get(req_id)
        if pending is None:
            return
        config = self.lpm.config
        interval = config.datagram_rto_ms * \
            (config.datagram_max_retries + 1)
        pending.retry_timer = self.lpm.sim.schedule(
            interval, self._retry, req_id, next_hop, message)

    def _retry(self, req_id: int, next_hop: str,
               message: Message) -> None:
        lpm = self.lpm
        pending = self.pending.get(req_id)
        if pending is None:
            return
        pending.retry_timer = None
        PERF.requests_retransmitted += 1
        link = lpm.transport.link_to(next_hop)
        if link is not None:
            try:
                lpm.transport.send_on_link(link, message)
            except ConnectionClosedError:
                pass
            self._arm_retry(req_id, next_hop, message)
            return

        # The endpoint died (ARQ exhaustion under loss); re-introduce
        # and resend.  A genuinely dead peer fails the introduction too,
        # and the request then dies by its ordinary timeout.
        def reconnected(relink) -> None:
            if req_id not in self.pending:
                return
            if relink is not None and relink.endpoint.open:
                try:
                    lpm.transport.send_on_link(relink, message)
                except ConnectionClosedError:
                    pass
            self._arm_retry(req_id, next_hop, message)

        lpm.transport.ensure_sibling(next_hop).then(reconnected)

    # ------------------------------------------------------------------
    # Reply correlation
    # ------------------------------------------------------------------

    def handle_reply(self, message: Message) -> None:
        pending = self.pending.pop(message.reply_to, None)
        if pending is None:
            return
        lpm = self.lpm
        lpm.sim.cancel(pending.timer)
        lpm.sim.cancel(pending.retry_timer)
        lpm.pool.release(pending.handler)
        # Route learning from reply routes (section 4).
        lpm.router.learn_from_reply(message)
        pending.on_reply(message)

    # ------------------------------------------------------------------
    # Server-side exactly-once cache
    # ------------------------------------------------------------------

    def note_request_started(self, message: Message) -> bool:
        """Exactly-once guard for side-effecting sibling requests.

        Returns True when this request was already executed (the cached
        reply is re-sent — the client's retransmission means the first
        reply was lost) or is still executing (the duplicate is dropped;
        the original's reply is on its way).  Otherwise records the
        request as in progress and returns False.  The payload is
        compared too, so a fresh request that happens to collide on
        (origin, req_id) — e.g. after an origin restart — is never
        answered from the cache.
        """
        key = (message.origin, message.user, message.req_id)
        cached = self._done_requests.get(key)
        if cached is not None and cached[0] is message.kind \
                and cached[1] == message.payload:
            PERF.requests_deduplicated += 1
            result = cached[2]
            if result is not REQUEST_PENDING:
                reply = message.make_reply(
                    ack_kind_for(message.kind), self.lpm.name, result)
                self.lpm.router.route_send(reply)
            return True
        self._done_requests.add(
            key, (message.kind, message.payload, REQUEST_PENDING))
        return False

    def note_request_done(self, message: Message, result: dict) -> None:
        self._done_requests.add(
            (message.origin, message.user, message.req_id),
            (message.kind, message.payload, result))

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def cancel_all(self) -> None:
        for pending in list(self.pending.values()):
            self.lpm.sim.cancel(pending.timer)
            self.lpm.sim.cancel(pending.retry_timer)
        self.pending.clear()
