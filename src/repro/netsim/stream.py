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

Delivery scheduling is batched per circuit direction.  Each direction
keeps a sorted in-flight queue (arrival times are non-decreasing thanks
to the in-order floor, so appends keep it sorted) and at most **one**
armed simulator timer.  When the timer fires it drains every segment
whose arrival time has been reached, then re-arms for the next pending
arrival.  Arrival times are byte-identical to scheduling one event per
segment — only the event volume changes, which is what keeps chatty
circuits (gather storms, broadcast replies, history streaming) from
flooding the event queue.  See ``docs/NETSIM.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

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

        The segment joins the direction's in-flight queue with an
        arrival time of now + wire delay + ``extra_delay_ms``, floored
        so it never arrives before an earlier message; the direction's
        single delivery timer (armed only when the queue was empty)
        drains it when that time is reached.  ``extra_delay_ms`` lets
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
                 "_inflight", "_delivery_timer", "_detect_timer",
                 "_break_scheduled")

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
        #: Per-direction sorted in-flight queue of (arrival_ms, payload).
        #: Appends preserve the sort because the floor above makes
        #: arrival times non-decreasing within a direction.
        self._inflight: dict = {id(self.a): deque(), id(self.b): deque()}
        #: Per-direction armed delivery timer (at most one each).
        self._delivery_timer: dict = {id(self.a): None, id(self.b): None}
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
        """Queue one segment toward ``sender``'s peer.

        Computes the arrival time exactly as the per-segment scheduler
        did (wire delay of the current path, plus the caller's extra
        delay, floored by the in-order guarantee), appends it to the
        direction's in-flight queue, and arms the direction's delivery
        timer if it was idle.  A timer armed for an earlier segment
        already covers this one: arrival times within a direction are
        non-decreasing, so the head of the queue is always the next due
        arrival and no re-arm is needed on send.
        """
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
        # In-order delivery: never deliver before an earlier message.
        arrival = self.sim.now_ms + wire + extra_delay_ms
        key = id(peer)
        floor = self._last_delivery_ms[key]
        arrival = max(arrival, floor)
        self._last_delivery_ms[key] = arrival
        self._inflight[key].append((arrival, payload, self.sim.now_ms))
        if self._delivery_timer[key] is None:
            self._delivery_timer[key] = self.sim.schedule_at(
                arrival, self._deliver_due, peer)

    def _deliver_due(self, peer: StreamEndpoint) -> None:
        """The delivery timer for ``peer``'s direction fired: drain
        every in-flight segment whose arrival time has been reached (in
        queue order, which is arrival order), then re-arm for the next
        pending arrival if any segments remain.

        Each drained segment is checked against the same suppression
        rules the per-segment scheduler applied at its own delivery
        event — circuit still up, endpoint still open, receiving host
        still up — because an ``on_message`` callback may close the
        circuit or crash the host mid-drain.
        """
        key = id(peer)
        self._delivery_timer[key] = None
        queue: Deque[Tuple[float, object, float]] = self._inflight[key]
        now = self.sim.now_ms
        stats = self.network.stats
        tracer = self.sim.tracer
        PERF.stream_batched_deliveries += 1
        stats.stream_delivery_batches += 1
        while queue and queue[0][0] <= now:
            _, payload, sent_ms = queue.popleft()
            PERF.stream_segments_drained += 1
            if not self.established or not peer.open:
                stats.stream_deliveries_suppressed += 1
                continue
            node = self.network.nodes.get(peer.local_name)
            if node is None or not node.up:
                # The segment arrives at a dead host.
                stats.stream_deliveries_suppressed += 1
                continue
            if tracer is not None:
                # Send-to-delivery lag: queueing + wire + in-order floor.
                tracer.record("stream_lag", now - sent_ms)
            if peer.on_message is not None:
                peer.on_message(payload, peer)
        # A callback may have closed the circuit (queue cleared) or sent
        # more data on this direction (timer re-armed by transmit).
        if queue and self.established and self._delivery_timer[key] is None:
            PERF.stream_timer_rearms += 1
            self._delivery_timer[key] = self.sim.schedule_at(
                queue[0][0], self._deliver_due, peer)

    # ------------------------------------------------------------------
    # Teardown and failure
    # ------------------------------------------------------------------

    def _flush_timers(self) -> None:
        """Cancel every pending timer and drop the in-flight queues.

        Called on orderly close and on break: segments still in flight
        are lost (exactly as the per-segment scheduler dropped them at
        their individual delivery events), the delivery timers must not
        fire on a dead circuit, and a pending detect-break timer is
        dead bookkeeping once the circuit is already down.
        """
        for key, timer in self._delivery_timer.items():
            if timer is not None:
                self.sim.cancel(timer)
                self._delivery_timer[key] = None
            self._inflight[key].clear()
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

    def endpoints(self) -> List[StreamEndpoint]:
        return [self.a, self.b]

    def __repr__(self) -> str:
        return "StreamConnection(#%d %s <-> %s, %s)" % (
            self.conn_id, self.a.local_name, self.b.local_name,
            "up" if self.established else "down")
