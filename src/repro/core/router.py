"""Message forwarding and route maintenance over the LPM overlay.

Section 4: "All data returned to the originator of a broadcast request
includes the message's source-destination route.  This allows quick
routing of messages affecting processes in topologically distant
hosts."  This layer owns the :class:`~repro.core.routing.RouteCache`
and every decision about *which link* an addressed message leaves on:
relaying routed-through traffic at forwarding cost (Table 2's cheap
extra hop), sending replies back along their recorded route, learning
routes from reply routes and gather paths, and invalidating them when a
link is lost.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConnectionClosedError
from ..tracing.events import TraceEventType
from .expiry import ExpiryMap
from .messages import Message, MsgKind
from .routing import RouteCache

#: How long a failed LOCATE is remembered (the negative miss cache):
#: repeat lookups of a process the overlay already failed to find are
#: answered locally instead of re-flooding.  Only consulted under the
#: ``"sparse"`` policy.
LOCATE_MISS_TTL_MS = 30_000.0


def ack_kind_for(kind: MsgKind) -> MsgKind:
    """The reply kind a request of ``kind`` is answered with."""
    return {
        MsgKind.CONTROL: MsgKind.CONTROL_ACK,
        MsgKind.CREATE: MsgKind.CREATE_ACK,
        MsgKind.GATHER: MsgKind.GATHER_REPLY,
        MsgKind.LOCATE: MsgKind.LOCATE_ACK,
        MsgKind.CCS_REPORT: MsgKind.CCS_ACK,
        MsgKind.CCS_PROBE: MsgKind.CCS_PROBE_ACK,
    }.get(kind, MsgKind.TOOL_REPLY)


class MessageRouter:
    """Forwarding and route-cache maintenance for one LPM."""

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.cache = RouteCache(lpm.name)
        #: Negative LOCATE cache: ``(host, pid)`` lookups the overlay
        #: recently failed to answer, retained for
        #: ``LOCATE_MISS_TTL_MS`` so repeat lookups are refused locally
        #: instead of re-flooding.
        self.locate_misses = ExpiryMap(LOCATE_MISS_TTL_MS,
                                       lambda: lpm.sim.now_ms)

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------

    def forward(self, message: Message, arrived_from: str) -> None:
        """Relay a routed-through message one hop along its route, or
        report failure back toward the origin when no hop is open."""
        lpm = self.lpm
        route = message.route
        try:
            index = route.index(lpm.name)
            next_hop = route[index + 1]
        except (ValueError, IndexError):
            next_hop = None
        links = lpm.transport.links
        if next_hop is None or next_hop not in links or \
                not links[next_hop].endpoint.open:
            if next_hop is not None:
                # The route references a link we no longer have: drop
                # every cached route through that hop now, rather than
                # leaving them to fail the same way on the next send.
                self.invalidate_via(next_hop)
            # Cannot relay: report failure back toward the origin.
            if not message.is_reply:
                failure = message.make_reply(
                    ack_kind_for(message.kind), lpm.name,
                    {"ok": False, "error": "no route at %s" % (lpm.name,)})
                failure.route = list(reversed(route[:route.index(lpm.name) + 1])) \
                    if lpm.name in route else [lpm.name, arrived_from]
                failure.final_dest = message.origin
                self.route_send(failure)
            return
        tracer = lpm.sim.tracer
        if tracer is not None and message.trace is not None:
            tracer.instant("hop:%s" % message.kind.value, host=lpm.name,
                           parent=message.trace, cat="route",
                           next_hop=next_hop)
        try:
            lpm.transport.send_on_link(links[next_hop], message,
                                       forwarding=True)
        except ConnectionClosedError:
            pass

    def route_send(self, message: Message) -> None:
        """Send an already-addressed reply/notice along its route."""
        lpm = self.lpm
        next_hop = None
        route = message.route
        if lpm.name in route:
            index = route.index(lpm.name)
            if index + 1 < len(route):
                next_hop = route[index + 1]
        if next_hop is None:
            next_hop = message.final_dest
        link = lpm.transport.link_to(next_hop)
        if link is None:
            return
        try:
            lpm.transport.send_on_link(link, message)
        except ConnectionClosedError:
            pass

    # ------------------------------------------------------------------
    # Route learning and loss
    # ------------------------------------------------------------------

    def outbound_route(self, dest: str) -> Optional[List[str]]:
        """The route a fresh request to ``dest`` would take: the direct
        link when one is open, else the cached overlay route."""
        lpm = self.lpm
        if lpm.transport.link_to(dest) is not None:
            return [lpm.name, dest]
        return self.cache.route_to(dest)

    def learn_from_reply(self, message: Message) -> None:
        """Route learning from reply routes (section 4)."""
        if len(message.route) > 2 and \
                self.cache.learn_from_reply_route(message.route):
            self.lpm._trace(TraceEventType.ROUTE_LEARNED,
                            dest=message.route[0],
                            route=list(reversed(message.route)))

    def learn_path(self, path: List[str]) -> None:
        """Learn a forward overlay path (gather's assembled paths)."""
        if len(path) > 2 and self.cache.learn(list(path)):
            self.lpm._trace(TraceEventType.ROUTE_LEARNED, dest=path[-1],
                            route=list(path))

    def invalidate_via(self, broken_peer: str) -> None:
        for dest in self.cache.invalidate_via(broken_peer):
            self.lpm._trace(TraceEventType.ROUTE_LEARNED, dest=dest,
                            forgotten=True)
        # Broadcast-tree state through the peer is stale for the same
        # reason the routes are (no-op outside the sparse policy).
        self.lpm.treecast.on_link_lost(broken_peer)

    # ------------------------------------------------------------------
    # LOCATE result caching
    # ------------------------------------------------------------------

    def note_locate_miss(self, host: str, pid: int) -> None:
        self.locate_misses.add((host, pid))

    def locate_miss_fresh(self, host: str, pid: int) -> bool:
        """Whether a LOCATE for ``(host, pid)`` failed within the
        negative-cache TTL (so the flood can be skipped)."""
        return (host, pid) in self.locate_misses
