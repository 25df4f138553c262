"""Reliable stream connections — the paper's TCP virtual circuits.

Sibling LPMs, tool connections, and daemon conversations all run over
these (section 3: "communication between sibling LPMs is done by reliable
virtual circuits provided by TCP connections").  A connection delivers
messages in order with the wire delay of its current network path, breaks
when the path disappears (crash, partition, link down), and notifies the
surviving endpoints after a detection delay, like a failed send or
keepalive would.

Establishing a connection costs a configurable setup time covering the
three-way handshake plus the channel authentication of section 3
("The LPMs are able to perform authentication when channels are created,
rather than upon every request").

Each segment is one simulator event at its arrival time, floored so a
segment never arrives before an earlier one in the same direction.  A
direction keeps its pending delivery events in send order, so a close or
break cancels what is still in flight.  See ``docs/NETSIM.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..errors import ConnectionClosedError, UnreachableHostError
from ..perf import PERF
from .network import Network

#: Default detection delay for a silently broken circuit.
DEFAULT_DETECT_MS = 2_000.0


class StreamEndpoint:
    """One end of a stream connection.

    Owners install ``on_message(payload, endpoint)`` and
    ``on_close(reason, endpoint)`` callbacks.  ``peer_name`` is the host
    at the other end, and ``context`` is free for the owner's use.
    Slotted: every sibling pair holds two of these for the lifetime of
    the session, and the tool/daemon fabrics churn through many more.
    """

    __slots__ = ("conn", "local_name", "peer_name", "on_message",
                 "on_close", "context", "_closed")

    def __init__(self, conn: "StreamConnection", local: str,
                 peer: str) -> None:
        self.conn = conn
        self.local_name = local
        self.peer_name = peer
        self.on_message: Optional[Callable] = None
        self.on_close: Optional[Callable] = None
        self.context = None
        self._closed = False

    @property
    def open(self) -> bool:
        return not self._closed and self.conn.established

    def send(self, payload, nbytes: int = 256,
             extra_delay_ms: float = 0.0) -> None:
        """Queue ``payload`` for in-order delivery to the peer.

        The segment is delivered at now + wire delay +
        ``extra_delay_ms``, floored so it never arrives before an
        earlier message.  ``extra_delay_ms`` lets
        the caller add endpoint processing time computed at a higher
        layer (e.g. load-scaled LPM protocol costs).  Raises
        :class:`ConnectionClosedError` if the circuit is known to be
        down, and breaks the circuit immediately if the send discovers
        the path is gone (TCP RST semantics).
        """
        if not self.open:
            raise ConnectionClosedError(
                "%s -> %s" % (self.local_name, self.peer_name))
        self.conn.transmit(self, payload, nbytes, extra_delay_ms)

    def close(self) -> None:
        """Orderly shutdown of the whole connection; idempotent."""
        if not self._closed:
            self.conn.close(initiator=self)

    def _mark_closed(self) -> None:
        self._closed = True

    def __repr__(self) -> str:
        return "StreamEndpoint(%s <-> %s, %s)" % (
            self.local_name, self.peer_name,
            "open" if self.open else "closed")


class StreamConnection:
    """A reliable, ordered, authenticated-at-setup virtual circuit."""

    __slots__ = ("network", "sim", "conn_id", "a", "b",
                 "detect_ms", "established", "_last_delivery_ms",
                 "_inflight", "_detect_timer", "_break_scheduled")

    def __init__(self, network: Network, a_name: str, b_name: str,
                 detect_ms: float = DEFAULT_DETECT_MS) -> None:
        self.network = network
        self.sim = network.sim
        self.conn_id = network.next_conn_id()
        self.a = StreamEndpoint(self, a_name, b_name)
        self.b = StreamEndpoint(self, b_name, a_name)
        self.detect_ms = detect_ms
        self.established = False
        #: Per-direction in-order floor: no segment may arrive before a
        #: previously queued one (keyed by receiving endpoint).
        self._last_delivery_ms = {id(self.a): 0.0, id(self.b): 0.0}
        #: Per-direction pending delivery events, in send order.  The
        #: floor above makes them fire in that order, so each delivery
        #: pops the head.
        self._inflight: dict = {id(self.a): deque(), id(self.b): deque()}
        #: The pending detect-break timer armed by :meth:`recheck`.
        self._detect_timer = None
        self._break_scheduled = False

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------

    @classmethod
    def connect(cls, network: Network, src: str, dst: str, service: str,
                payload=None, setup_ms: float = 0.0,
                on_established: Optional[Callable] = None,
                on_failed: Optional[Callable] = None,
                detect_ms: float = DEFAULT_DETECT_MS) -> "StreamConnection":
        """Open a circuit from ``src`` to the named service on ``dst``.

        Asynchronous: after the setup delay (handshake round trip plus
        ``setup_ms`` for authentication), the destination's acceptor is
        called with the server-side endpoint and ``payload``, then
        ``on_established(client_endpoint)`` fires.  If the destination is
        unreachable or not listening, ``on_failed(reason)`` fires instead
        (after one round-trip-worth of delay, as a refused TCP connect
        would).
        """
        conn = cls(network, src, dst, detect_ms=detect_ms)
        sim = network.sim

        try:
            one_way = network.transit_delay_ms(src, dst, 64)
        except UnreachableHostError:
            conn._connect_fail("unreachable", detect_ms, on_failed)
            return conn

        node = network.nodes[dst]
        acceptor = node.services.get(service)
        if acceptor is None:
            conn._connect_fail(
                "connection refused: no %r service on %s" % (service, dst),
                2 * one_way, on_failed)
            return conn

        sim.schedule_at(sim.now_ms + 2 * one_way + setup_ms, conn._complete,
                        service, payload, on_established, on_failed)
        return conn

    def _connect_fail(self, reason: str, delay_ms: float,
                      on_failed: Optional[Callable]) -> None:
        """Deliver a connect failure to the client side after a delay."""

        def deliver_failure() -> None:
            if on_failed is not None:
                on_failed(reason)

        self.sim.schedule(delay_ms, deliver_failure)

    def _complete(self, service: str, payload,
                  on_established: Optional[Callable],
                  on_failed: Optional[Callable]) -> None:
        """The handshake finished: establish, accept, notify."""
        network = self.network
        src, dst = self.a.local_name, self.b.local_name
        # The path may have vanished during the handshake.
        if not network.reachable(src, dst):
            self._connect_fail("unreachable", 0.0, on_failed)
            return
        current_acceptor = network.nodes[dst].services.get(service)
        if current_acceptor is None:
            self._connect_fail(
                "connection refused: %r vanished on %s" % (service, dst),
                0.0, on_failed)
            return
        self.established = True
        network.register_connection(self)
        current_acceptor(self.b, payload)
        if on_established is not None:
            on_established(self.a)

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------

    def _peer_of(self, endpoint: StreamEndpoint) -> StreamEndpoint:
        return self.b if endpoint is self.a else self.a

    def transmit(self, sender: StreamEndpoint, payload, nbytes: int,
                 extra_delay_ms: float) -> None:
        """Schedule one segment's delivery to ``sender``'s peer at the
        wire delay of the current path plus the caller's extra delay,
        floored by the in-order guarantee."""
        peer = self._peer_of(sender)
        try:
            wire = self.network.transit_delay_ms(sender.local_name,
                                                 peer.local_name, nbytes)
        except UnreachableHostError:
            # A send onto a dead path discovers the break immediately.
            self._break("connection reset", immediate=True)
            raise ConnectionClosedError(
                "%s -> %s" % (sender.local_name, peer.local_name)) from None
        self.network.stats.stream_messages += 1
        self.network.stats.stream_bytes += nbytes
        now = self.sim.now_ms
        key = id(peer)
        arrival = max(now + wire + extra_delay_ms, self._last_delivery_ms[key])
        self._last_delivery_ms[key] = arrival
        self._inflight[key].append(self.sim.schedule_at(
            arrival, self._deliver, peer, payload, now))

    def _deliver(self, peer: StreamEndpoint, payload, sent_ms: float) -> None:
        """One segment reaches ``peer``: hand it over unless the circuit
        closed, the endpoint closed or the receiving host went down
        while it was in flight."""
        self._inflight[id(peer)].popleft()
        PERF.stream_batched_deliveries += 1
        PERF.stream_segments_drained += 1
        stats = self.network.stats
        if not self.established or not peer.open:
            stats.stream_deliveries_suppressed += 1
            return
        node = self.network.nodes.get(peer.local_name)
        if node is None or not node.up:
            # The segment arrives at a dead host.
            stats.stream_deliveries_suppressed += 1
            return
        tracer = self.sim.tracer
        if tracer is not None:
            # Send-to-delivery lag: queueing + wire + in-order floor.
            tracer.record("stream_lag", self.sim.now_ms - sent_ms)
        if peer.on_message is not None:
            peer.on_message(payload, peer)

    # ------------------------------------------------------------------
    # Teardown and failure
    # ------------------------------------------------------------------

    def _flush_timers(self) -> None:
        """Cancel every pending delivery and the detect-break timer.

        Called on orderly close and on break: segments still in flight
        are lost, and no event of a dead circuit may advance the clock.
        """
        for inflight in self._inflight.values():
            for event in inflight:
                self.sim.cancel(event)
            inflight.clear()
        if self._detect_timer is not None:
            self.sim.cancel(self._detect_timer)
            self._detect_timer = None
        self._break_scheduled = False

    def close(self, initiator: Optional[StreamEndpoint] = None) -> None:
        """Orderly close: both endpoints see on_close('closed')."""
        if not self.established:
            return
        self.established = False
        self._flush_timers()
        self.network.unregister_connection(self)
        for endpoint in (self.a, self.b):
            if endpoint._closed:
                continue
            endpoint._mark_closed()
            if endpoint is not initiator and endpoint.on_close is not None:
                endpoint.on_close("closed", endpoint)

    def recheck(self) -> None:
        """Called by the network after topology changes; breaks the
        circuit (after the detection delay) if its path is gone."""
        if not self.established or self._break_scheduled:
            return
        if self.network.reachable(self.a.local_name, self.b.local_name):
            return
        self._break_scheduled = True
        self._detect_timer = self.sim.schedule(
            self.detect_ms, self._detect_break_fired)

    def _detect_break_fired(self) -> None:
        """The detection delay elapsed; break unless the path healed."""
        self._detect_timer = None
        self._break_scheduled = False
        if not self.established:
            return
        # The path may have healed before detection fired.
        if self.network.reachable(self.a.local_name, self.b.local_name):
            return
        self._break("connection timed out", immediate=True)

    def _break(self, reason: str, immediate: bool = False) -> None:
        """Tear the circuit down.

        ``immediate`` skips the heal re-check (the caller has already
        established the path is gone: a reset send, or a detect timer
        that just verified unreachability).  Any pending detect-break
        timer is cancelled and ``_break_scheduled`` cleared, so an
        immediate break racing an armed detection cannot leave stale
        bookkeeping behind.
        """
        if not self.established:
            return
        if not immediate and self.network.reachable(self.a.local_name,
                                                    self.b.local_name):
            self._break_scheduled = False
            return
        self.established = False
        self._flush_timers()
        self.network.unregister_connection(self)
        self.network.stats.connections_broken += 1
        for endpoint in (self.a, self.b):
            if endpoint._closed:
                continue
            endpoint._mark_closed()
            node = self.network.nodes.get(endpoint.local_name)
            if node is not None and not node.up:
                continue  # a crashed host hears nothing
            if endpoint.on_close is not None:
                endpoint.on_close(reason, endpoint)

    def __repr__(self) -> str:
        return "StreamConnection(#%d %s <-> %s, %s)" % (
            self.conn_id, self.a.local_name, self.b.local_name,
            "up" if self.established else "down")
