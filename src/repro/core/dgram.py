"""The datagram sibling transport.

Section 3: "Virtual circuits, however, limit extensibility.  A datagram
based scheme would scale much better, but would require individual
authentication for each message. ... A reliable datagram protocol and a
scheme based on remote procedure calls, would be promising alternatives
for scalability."

This module is that reliable datagram protocol, selected with
``PPMConfig(transport="datagram")``:

* **No kept connections.**  Each LPM binds one datagram port; peers are
  plain addresses.  The network holds zero circuit state for the
  session.
* **Individual authentication for each message.**  An *intro* datagram
  presents the pmd-issued token (the trusted introduction); every later
  *data* datagram carries a signature over the session secret, sender,
  and sequence number, and the netsim datagram layer charges the
  per-message authentication cost.
* **ARQ reliability.**  Data and intro datagrams are retransmitted on a
  timeout until acknowledged; exhausted retries report the peer lost
  (which feeds the same section 5 recovery machinery the stream
  transport feeds through broken circuits).

The :class:`DatagramEndpoint` mimics the stream endpoint's interface
(`send`, `open`, `close`, `on_message`, `on_close`, `peer_name`), so the
whole LPM protocol runs unchanged over either transport.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional

from ..errors import ConnectionClosedError
from ..util import Deferred

#: Per-peer window of remembered sequence numbers (duplicate delivery
#: suppression for retransmitted datagrams).
SEEN_WINDOW = 128

#: Keepalive interval.  Circuits learn of a dead peer from the broken
#: connection; datagrams have no connection to break, so liveness must
#: be probed (the flip side of "TCP connections are also needed to
#: assure message delivery", section 3).
KEEPALIVE_MS = 15_000.0


def _port_name(user: str) -> str:
    return "lpmdg:%s" % (user,)


def _sign(secret: str, from_host: str, seq: int) -> str:
    digest = hashlib.sha256(("%s|%s|%d" % (secret, from_host,
                                           seq)).encode("utf-8"))
    return digest.hexdigest()[:16]


class DatagramEndpoint:
    """One logical peer relationship over the datagram fabric."""

    def __init__(self, fabric: "DatagramFabric", peer: str) -> None:
        self.fabric = fabric
        self.local_name = fabric.lpm.name
        self.peer_name = peer
        self.on_message: Optional[Callable] = None
        self.on_close: Optional[Callable] = None
        self.context = None
        self._closed = False
        self._next_seq = 0
        #: seq -> (timer, datagram dict, tries) awaiting acks.
        self._unacked: Dict[int, list] = {}
        #: recently delivered sequence numbers from the peer.
        self._seen: list = []
        #: intro_id of the peer incarnation whose seqs ``_seen`` covers.
        self._peer_intro_id: Optional[str] = None

    @property
    def open(self) -> bool:
        return not self._closed and self.fabric.bound

    # ------------------------------------------------------------------
    # Sending with ARQ
    # ------------------------------------------------------------------

    def send(self, payload, nbytes: int = 256,
             extra_delay_ms: float = 0.0) -> None:
        if not self.open:
            raise ConnectionClosedError(
                "%s -> %s (datagram)" % (self.local_name, self.peer_name))
        self._next_seq += 1
        seq = self._next_seq
        datagram = {"kind": "data", "seq": seq,
                    "from_host": self.local_name,
                    "user": self.fabric.lpm.user,
                    "sig": _sign(self.fabric.lpm.secret, self.local_name,
                                 seq),
                    "payload": payload}
        self._transmit(datagram, nbytes, extra_delay_ms, tries=1)

    def send_ping(self) -> None:
        """A keepalive: crosses the ARQ (so retry exhaustion detects a
        dead peer) but is never delivered to the protocol layer."""
        if not self.open:
            return
        self._next_seq += 1
        seq = self._next_seq
        datagram = {"kind": "ping", "seq": seq,
                    "from_host": self.local_name,
                    "user": self.fabric.lpm.user,
                    "sig": _sign(self.fabric.lpm.secret, self.local_name,
                                 seq)}
        self._transmit(datagram, 64, 0.0, tries=1)

    def send_intro(self, token: str, nbytes: int = 200) -> None:
        """The introduction: per-message proof via the pmd token."""
        self._next_seq += 1
        lpm = self.fabric.lpm
        datagram = {"kind": "intro", "seq": self._next_seq,
                    "from_host": self.local_name, "user": lpm.user,
                    "token": token, "secret": lpm.secret,
                    "ccs_host": lpm.ccs_host,
                    "intro_id": self.fabric.next_intro_id(),
                    "known": lpm.transport.authenticated()}
        self._transmit(datagram, nbytes, 0.0, tries=1)

    def _transmit(self, datagram: dict, nbytes: int,
                  extra_delay_ms: float, tries: int) -> None:
        lpm = self.fabric.lpm
        config = lpm.config
        seq = datagram["seq"]
        lpm.fabric.datagram_send(
            self.local_name, self.peer_name, _port_name(lpm.user),
            datagram, nbytes=nbytes, extra_delay_ms=extra_delay_ms)
        timer = lpm.sim.schedule(
            config.datagram_rto_ms * tries,  # linear backoff
            self._retransmit, seq, nbytes)
        self._unacked[seq] = [timer, datagram, tries]

    def _retransmit(self, seq: int, nbytes: int) -> None:
        entry = self._unacked.get(seq)
        if entry is None or self._closed:
            return
        _timer, datagram, tries = entry
        if tries >= self.fabric.lpm.config.datagram_max_retries:
            del self._unacked[seq]
            self._fail("datagram timeout")
            return
        self._transmit(datagram, nbytes, 0.0, tries + 1)

    def on_ack(self, seq: int) -> None:
        entry = self._unacked.pop(seq, None)
        if entry is not None:
            self.fabric.lpm.sim.cancel(entry[0])

    def note_peer_alive(self) -> None:
        """Any authenticated arrival proves the peer is up.

        In-flight retry budgets restart, so under message loss an
        endpoint only dies after a full retry window of *mutual*
        silence — matching the stream transport, whose circuits break
        on peer death rather than on lost packets.  A crashed or
        partitioned peer sends nothing, so failure detection
        (`test_retry_exhaustion_closes_endpoint`) is unaffected.
        """
        for entry in self._unacked.values():
            entry[2] = 0

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def deliver(self, datagram: dict) -> None:
        seq = datagram["seq"]
        self.fabric.send_ack(self.peer_name, seq)
        if seq in self._seen:
            return  # a retransmission of something already delivered
        self._seen.append(seq)
        if len(self._seen) > SEEN_WINDOW:
            del self._seen[0]
        if self.on_message is not None:
            self.on_message(datagram["payload"], self)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for timer, _datagram, _tries in self._unacked.values():
            self.fabric.lpm.sim.cancel(timer)
        self._unacked.clear()
        self.fabric.forget(self.peer_name)

    def _fail(self, reason: str) -> None:
        if self._closed:
            return
        self._closed = True
        for timer, _datagram, _tries in self._unacked.values():
            self.fabric.lpm.sim.cancel(timer)
        self._unacked.clear()
        self.fabric.forget(self.peer_name)
        if self.on_close is not None:
            self.on_close(reason, self)

    def __repr__(self) -> str:
        return "DatagramEndpoint(%s <-> %s, %s)" % (
            self.local_name, self.peer_name,
            "open" if self.open else "closed")


class DatagramFabric:
    """Per-LPM datagram dispatcher: one bound port, many peers."""

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.bound = False
        self._endpoints: Dict[str, DatagramEndpoint] = {}
        self._pending_intros: Dict[str, Deferred] = {}
        self._keepalive_timer = None
        self._next_intro_id = 0
        self.rejected = 0
        self.pings_sent = 0

    def next_intro_id(self) -> str:
        """A fresh endpoint-incarnation marker.

        Carried in the intro so the receiver can tell a *new* sender
        endpoint (sequence numbers reset — stale ``_seen`` entries
        would silently swallow its messages) from a mere retransmission
        of an intro it already processed (clearing ``_seen`` there
        could re-deliver data, breaking exactly-once).  Qualified with
        the simulation clock so the marker survives an LPM restart
        (which resets the per-fabric counter).
        """
        self._next_intro_id += 1
        return "%.6f:%d" % (self.lpm.sim.now_ms, self._next_intro_id)

    def bind(self) -> None:
        self.lpm.fabric.datagram_bind(self.lpm.name,
                                      _port_name(self.lpm.user),
                                      self._on_datagram)
        self.bound = True
        self._arm_keepalive()

    def unbind(self) -> None:
        if self.bound:
            self.lpm.fabric.datagram_unbind(self.lpm.name,
                                            _port_name(self.lpm.user))
            self.bound = False
        if self._keepalive_timer is not None:
            self.lpm.sim.cancel(self._keepalive_timer)
            self._keepalive_timer = None
        for endpoint in list(self._endpoints.values()):
            endpoint.close()
        self._endpoints.clear()

    # ------------------------------------------------------------------
    # Keepalive: the datagram substitute for broken-circuit detection
    # ------------------------------------------------------------------

    def _arm_keepalive(self) -> None:
        self._keepalive_timer = self.lpm.sim.schedule(
            KEEPALIVE_MS, self._keepalive_tick)

    def _keepalive_tick(self) -> None:
        self._keepalive_timer = None
        if not self.bound or not self.lpm.is_running():
            return
        for endpoint in list(self._endpoints.values()):
            if endpoint.open and not endpoint._unacked:
                self.lpm.sim.schedule(
                    self._keepalive_offset_ms(endpoint.peer_name),
                    self._ping_endpoint, endpoint.peer_name)
        self._arm_keepalive()

    def _ping_endpoint(self, peer: str) -> None:
        if not self.bound or not self.lpm.is_running():
            return
        endpoint = self._endpoints.get(peer)
        if endpoint is not None and endpoint.open \
                and not endpoint._unacked:
            endpoint.send_ping()
            self.pings_sent += 1

    def _keepalive_offset_ms(self, peer: str) -> float:
        """A per-endpoint jitter within the global keepalive period, so
        a large session's pings spread instead of bursting on one tick.

        Derived by hashing stable session identifiers — never from the
        shared simulation RNG, whose draw sequence downstream code
        depends on — so the offset is deterministic for a given seed
        (the session secret is seed-derived) without perturbing any
        other random choice.
        """
        digest = hashlib.sha256(
            ("keepalive|%s|%s|%s" % (self.lpm.secret, self.lpm.name,
                                     peer)).encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2.0 ** 32
        return fraction * KEEPALIVE_MS

    def endpoint_for(self, peer: str) -> DatagramEndpoint:
        endpoint = self._endpoints.get(peer)
        if endpoint is None or not endpoint.open:
            endpoint = DatagramEndpoint(self, peer)
            self._endpoints[peer] = endpoint
        return endpoint

    def forget(self, peer: str) -> None:
        self._endpoints.pop(peer, None)

    # ------------------------------------------------------------------
    # Introduction handshake (client side)
    # ------------------------------------------------------------------

    def introduce(self, peer: str, token: str) -> Deferred:
        """Send an intro and resolve to the endpoint (or None)."""
        if peer in self._pending_intros:
            return self._pending_intros[peer]
        done = Deferred()
        self._pending_intros[peer] = done
        done.then(lambda _r: self._pending_intros.pop(peer, None))
        endpoint = self.endpoint_for(peer)
        original_close = endpoint.on_close

        def intro_failed(reason, ep) -> None:
            done.resolve(None)
            if original_close is not None:
                original_close(reason, ep)

        endpoint.on_close = intro_failed
        endpoint.context = {"await_intro": done}
        endpoint.send_intro(token)
        return done

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def send_ack(self, peer: str, seq: int) -> None:
        self.lpm.fabric.datagram_send(
            self.lpm.name, peer, _port_name(self.lpm.user),
            {"kind": "ack", "seq": seq, "from_host": self.lpm.name},
            nbytes=48)

    def _on_datagram(self, datagram, src_host: str) -> None:
        if not self.lpm.is_running() or not isinstance(datagram, dict):
            return
        kind = datagram.get("kind")
        sender = datagram.get("from_host", src_host)
        if kind == "ack":
            endpoint = self._endpoints.get(sender)
            if endpoint is not None:
                endpoint.note_peer_alive()
                endpoint.on_ack(datagram["seq"])
        elif kind == "intro":
            self._handle_intro(datagram, sender)
        elif kind == "intro_ack":
            endpoint = self._endpoints.get(sender)
            if endpoint is not None:
                endpoint.note_peer_alive()
                endpoint.on_ack(datagram.get("acked_seq", -1))
                self.lpm.transport.on_datagram_intro_ack(datagram, endpoint)
        elif kind == "data":
            self._handle_data(datagram, sender)
        elif kind == "ping":
            expected = _sign(self.lpm.secret, sender, datagram["seq"])
            if datagram.get("sig") != expected:
                self.rejected += 1
                return
            endpoint = self._endpoints.get(sender)
            if endpoint is not None:
                endpoint.note_peer_alive()
            self.send_ack(sender, datagram["seq"])

    def _handle_intro(self, datagram: dict, sender: str) -> None:
        lpm = self.lpm
        if datagram.get("token") != lpm.token or \
                datagram.get("user") != lpm.user:
            self.rejected += 1
            return  # silently dropped, like a bad packet
        endpoint = self.endpoint_for(sender)
        intro_id = datagram.get("intro_id")
        if intro_id != endpoint._peer_intro_id:
            # A new sender incarnation: its sequence numbers restart,
            # so the old incarnation's delivered-window must not
            # suppress them.  (A retransmitted intro carries the same
            # intro_id and leaves the window alone.)
            endpoint._peer_intro_id = intro_id
            endpoint._seen.clear()
        endpoint.note_peer_alive()
        # Ack the intro itself and let the transport register the
        # sibling link.
        lpm.transport.on_datagram_intro(datagram, endpoint)
        lpm.fabric.datagram_send(
            lpm.name, sender, _port_name(lpm.user),
            {"kind": "intro_ack", "seq": 0,
             "acked_seq": datagram["seq"], "from_host": lpm.name,
             "secret": lpm.secret, "ccs_host": lpm.ccs_host,
             "known": lpm.transport.authenticated()},
            nbytes=200)

    def _handle_data(self, datagram: dict, sender: str) -> None:
        # Individual authentication for each message (section 3).
        expected = _sign(self.lpm.secret, sender, datagram["seq"])
        if datagram.get("sig") != expected:
            self.rejected += 1
            return
        endpoint = self._endpoints.get(sender)
        if endpoint is None:
            self.rejected += 1  # data from an unintroduced peer
            return
        endpoint.note_peer_alive()
        endpoint.deliver(datagram)
