"""The sibling transport layer: section 3's authenticated circuits.

"Communication between sibling LPMs occurs through communication
channels.  ... Channel authentication occurs at channel-creation time."
(section 3)  The paper implements these channels as TCP virtual
circuits, one per peer host; this module owns them, presenting the LPM
a single :class:`SiblingTransport` whose links honour the fabric's
endpoint contract (`send`, `open`, `close`, `on_message`, `on_close`,
`peer_name`).  The paper's datagram alternative is measured at the
transport level only (ablation A1).

Everything connection-shaped lives here: accepting sibling HELLOs,
bootstrapping remote LPMs through inetd/pmd (Figure 2), link teardown,
and the per-message send cost accounting.  The LPM above only ever
sees authenticated :class:`SiblingLink` objects.
"""

from __future__ import annotations

from typing import Dict, List

from ..ids import INETD_SERVICE, PPM_SERVICE
from ..tracing.events import TraceEventType
from ..util import Deferred
from .messages import Message, MsgKind
from .wire import message_size_bytes


class SiblingLink:
    """An authenticated channel to a sibling LPM."""

    def __init__(self, peer: str, endpoint) -> None:
        self.peer = peer
        self.endpoint = endpoint
        self.authenticated = False
        self.opened_ms = 0.0


class SiblingTransport:
    """Owns every sibling channel of one LPM.

    The LPM injects itself as the upward interface: the transport uses
    its fabric (``lpm.fabric``: clock, timers, connections), identity
    (``name``/``user``/``token``), serialised-CPU booking
    (``_cpu_occupy``), trace hook, and message dispatcher
    (``_sibling_on_message``); the transport in turn is the only layer
    that touches stream connections.
    """

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.links: Dict[str, SiblingLink] = {}
        #: Set once this LPM has joined a session (first authenticated
        #: sibling); after that, HELLOs no longer overwrite the session
        #: secret or the CCS identity.
        self.session_established = False
        self._pending_links: Dict[str, Deferred] = {}

    # ------------------------------------------------------------------
    # Link inventory
    # ------------------------------------------------------------------

    def authenticated(self) -> List[str]:
        return sorted(peer for peer, link in self.links.items()
                      if link.authenticated and link.endpoint.open)

    def link_to(self, peer: str):
        """The open authenticated link to ``peer``, or None."""
        link = self.links.get(peer)
        if link is not None and link.endpoint.open:
            return link
        return None

    def _join_session(self, info: dict) -> None:
        """Join the sender's session unless we already belong to one."""
        lpm = self.lpm
        if not self.session_established:
            if info.get("secret"):
                lpm.secret = info["secret"]
            if info.get("ccs_host"):
                lpm.ccs_host = info["ccs_host"]
        self.session_established = True

    # ------------------------------------------------------------------
    # Server side: a sibling connected to our accept socket
    # ------------------------------------------------------------------

    def accept_sibling(self, endpoint, payload: dict) -> None:
        # Channel authentication (section 3): the connector must present
        # the token this LPM's pmd issued, proving the introduction came
        # through the trusted name server.
        lpm = self.lpm
        if payload.get("token") != lpm.token or \
                payload.get("user") != lpm.user:
            lpm._trace(TraceEventType.CONN_CLOSED, kind="sibling",
                       reason="authentication failed",
                       peer=payload.get("from_host", "?"))
            endpoint.close()
            return
        peer = payload["from_host"]
        link = SiblingLink(peer, endpoint)
        link.authenticated = True
        link.opened_ms = lpm.fabric.now_ms
        old = self.links.get(peer)
        if old is not None and old.endpoint.open:
            old.endpoint.close()
        self.links[peer] = link
        endpoint.on_message = lpm._sibling_on_message
        endpoint.on_close = self.on_link_close
        self._join_session(payload)
        lpm._trace(TraceEventType.CONN_OPEN, kind="sibling", peer=peer)
        ack = Message(kind=MsgKind.HELLO_ACK, req_id=lpm.rpc.next_req_id(),
                      origin=lpm.name, user=lpm.user,
                      payload={"secret": lpm.secret,
                               "ccs_host": lpm.ccs_host,
                               "known": self.authenticated()})
        self.send_on_link(link, ack)
        lpm.recovery.on_contact(peer)
        self.apply_topology_policy(payload.get("known", []))

    def handle_hello_ack(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        peer = endpoint.peer_name
        link = self.links.get(peer)
        if link is None or link.endpoint is not endpoint:
            return
        link.authenticated = True
        # Adopt the established side's session when we are the newcomer.
        self._join_session(message.payload)
        context = endpoint.context or {}
        waiter = context.get("await_ack")
        lpm._trace(TraceEventType.CONN_OPEN, kind="sibling", peer=peer)
        lpm.recovery.on_contact(peer)
        if waiter is not None:
            waiter.resolve(link)
        self.apply_topology_policy(message.payload.get("known", []))

    # ------------------------------------------------------------------
    # Client side: creating links on demand
    # ------------------------------------------------------------------

    def ensure_sibling(self, peer: str) -> Deferred:
        """Resolve to a :class:`SiblingLink` (or None on failure),
        creating the remote LPM through inetd/pmd when necessary.
        "The local LPM will create a remote LPM when one is required"
        (section 3)."""
        lpm = self.lpm
        done = Deferred()
        if peer == lpm.name:
            done.resolve(None)
            return done
        link = self.links.get(peer)
        if link is not None and link.authenticated and link.endpoint.open:
            done.resolve(link)
            return done
        if peer in self._pending_links:
            return self._pending_links[peer]
        self._pending_links[peer] = done
        done.then(lambda _result: self._pending_links.pop(peer, None))

        def bootstrap_replied(payload, endpoint) -> None:
            endpoint.close()
            if not payload.get("ok"):
                done.resolve(None)
                return
            self._open_channel(peer, payload, done)

        def bootstrap_established(endpoint) -> None:
            endpoint.on_message = bootstrap_replied
            endpoint.on_close = lambda reason, ep: done.resolve(None)

        # Figure 2 steps (1)-(4): ask the remote inetd for the user's
        # LPM accept address, creating pmd and LPM as needed.
        lpm.fabric.connect(
            lpm.name, peer, INETD_SERVICE,
            payload={"service": PPM_SERVICE, "user": lpm.user,
                     "origin_host": lpm.name, "origin_user": lpm.user},
            on_established=bootstrap_established,
            on_failed=lambda reason: done.resolve(None),
            detect_ms=lpm.config.connection_detect_ms)
        return done

    def _open_channel(self, peer: str, bootstrap: dict,
                      done: Deferred) -> None:
        lpm = self.lpm
        hello = {"role": "sibling", "user": lpm.user,
                 "from_host": lpm.name, "token": bootstrap["token"],
                 "secret": lpm.secret, "ccs_host": lpm.ccs_host,
                 "known": self.authenticated()}

        def established(endpoint) -> None:
            if not endpoint.open:
                # The acceptor refused the HELLO (a wrong token) before
                # the dial completed: no HELLO_ACK and no close follow.
                done.resolve(None)
                return
            link = SiblingLink(peer, endpoint)
            link.opened_ms = lpm.fabric.now_ms
            self.links[peer] = link
            endpoint.on_message = lpm._sibling_on_message
            endpoint.on_close = self.on_link_close
            endpoint.context = {"await_ack": done}

        lpm.fabric.connect(
            lpm.name, peer, bootstrap["accept_service"], payload=hello,
            setup_ms=lpm.cost.connect_ms,
            on_established=established,
            on_failed=lambda reason: done.resolve(None),
            detect_ms=lpm.config.connection_detect_ms)

    def apply_topology_policy(self, known: List[str]) -> None:
        """Under the ``full_mesh`` ablation policy, eagerly connect to
        every LPM a new sibling knows about; the paper's on-demand
        policy does nothing here ("In most operational scenarios we
        expect to have only very few of all the potential connections
        between sibling LPMs in place", section 4)."""
        if self.lpm.config.topology_policy != "full_mesh":
            return
        for host in known:
            if host != self.lpm.name and host not in self.links:
                self.ensure_sibling(host)

    # ------------------------------------------------------------------
    # Sending and teardown
    # ------------------------------------------------------------------

    def send_on_link(self, link: SiblingLink, message: Message,
                     forwarding: bool = False) -> None:
        lpm = self.lpm
        cost = lpm.cost.forward_ms if forwarding else lpm.cost.sibling_send_ms
        nbytes = message_size_bytes(message)
        tracer = lpm.fabric.tracer
        if tracer is not None and message.trace is not None:
            tracer.instant("send:%s" % message.kind.value, host=lpm.name,
                           parent=message.trace, cat="xport",
                           peer=link.peer, nbytes=nbytes,
                           forwarded=forwarding)
        # ``_value_`` is ``value`` without the enum property's descriptor
        # call, one per sibling message.
        lpm._trace(TraceEventType.SIBLING_MESSAGE, peer=link.peer,
                   kind=message.kind._value_, nbytes=nbytes,
                   forwarded=forwarding)
        link.endpoint.send(message, nbytes=nbytes,
                           extra_delay_ms=lpm._cpu_occupy(cost))

    def on_link_close(self, reason: str, endpoint) -> None:
        lpm = self.lpm
        peer = endpoint.peer_name
        link = self.links.get(peer)
        if link is not None and link.endpoint is endpoint:
            del self.links[peer]
        # A channel refused before its HELLO_ACK (a wrong token) or
        # dying mid-handshake must still fail the pending ensure_sibling.
        context = getattr(endpoint, "context", None) or {}
        waiter = context.get("await_ack")
        if waiter is not None:
            waiter.resolve(None)
        lpm._trace(TraceEventType.CONN_CLOSED, kind="sibling", peer=peer,
                   reason=reason)
        lpm.router.invalidate_via(peer)
        if not lpm.is_running():
            return
        if reason != "closed":
            lpm.recovery.on_connection_lost(peer, reason)

    def shutdown(self) -> None:
        """Close every sibling channel."""
        for link in list(self.links.values()):
            if link.endpoint.open:
                link.endpoint.close()
        self.links.clear()
