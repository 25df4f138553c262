"""Per-host listener and the real TCP endpoint type.

A :class:`RealNode` is one host's presence on the real network: a
single asyncio server socket (bound to port 0 — the kernel picks an
ephemeral port, discovered from the bound socket and published to the
registry) multiplexing every service the host offers, the way the
simulator's ``NetworkNode`` multiplexes named services on one host.

A :class:`RealEndpoint` satisfies the endpoint contract documented in
:mod:`repro.core.fabric`: the protocol stack (and ``PPMClient``) uses
it exactly as it uses a netsim ``StreamEndpoint``.  It is also the
``asyncio.Protocol`` of its socket: the transport hands each read to
``data_received``, which decodes the frames and dispatches them in
that same callback.  There is no stream reader and no reader task, so
an inbound message costs one turn of the event loop.

Both ends run the same handshake inside the endpoint.  The first frame
on a connection is the dialler's hello (``{"connect": service, "src":
host, "payload": ...}``) or the node's answer (``{"ok": ...}``); it
goes to the endpoint's ``greet`` callback, and every frame behind it is
held until that side has installed its handlers (:meth:`RealEndpoint.
release`).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Set

from ..errors import ConnectionClosedError
from .framing import FrameDecoder, FramingError, encode_frame
from .registry import HostRegistry

#: Built-in liveness/inventory service every node answers (the probe
#: surface ``repro doctor`` dials; see ``docs/OPERATIONS.md``).  One
#: request frame in, one status frame out, no LPM side effects.
STATUS_SERVICE = "__status__"

#: Most bytes taken off a socket in one read.
READ_BYTES = 65536


def cap_socket_reads(transport: asyncio.Transport) -> None:
    """Have the transport ask its socket for ``READ_BYTES`` per read
    instead of asyncio's 256 KiB.  The selector transport allocates
    its ``recv()`` size afresh for every read and shrinks it to what
    arrived.  At 256 KiB that is more than malloc keeps spare at the
    top of the heap, so a process grows and trims its heap once per
    message (two ``brk`` calls and two page faults, a fifth of a
    ping's client CPU) or does not, depending on what else it has
    allocated: the same code ran at two speeds and changed between
    them in mid-run."""
    transport.max_size = READ_BYTES


class RealEndpoint(asyncio.Protocol):
    """One side of a live TCP connection (endpoint contract), and the
    asyncio protocol that reads it."""

    def __init__(self, fabric, local_name: str, peer_name: str,
                 greet: Callable,
                 forget: Optional[Callable] = None) -> None:
        self.fabric = fabric
        self.local_name = local_name
        self.peer_name = peer_name
        self.transport: Optional[asyncio.Transport] = None
        self.open = True
        self.on_message: Optional[Callable] = None
        self.on_close: Optional[Callable] = None
        self.context = None
        self._decoder = FrameDecoder()
        #: ``greet(endpoint, frame)`` takes the connection's first
        #: frame, or None when the connection ended before one came;
        #: it runs once.
        self._greet: Optional[Callable] = greet
        #: Frames held until :meth:`release`; None once released.
        self._held: Optional[List] = []
        #: Why the connection ended while frames were held.
        self.lost_reason: Optional[str] = None
        #: ``forget(endpoint)`` runs once when this endpoint closes,
        #: whichever side closed first (the accepting node's cleanup).
        self._forget = forget

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        cap_socket_reads(transport)
        self.fabric.endpoints.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._decoder.feed(data)
        except FramingError:
            self._ended("protocol error")
            return
        held = self._held
        if held is None:
            for frame in frames:
                self.dispatch(frame)
            return
        held += frames
        if held and self._greet is not None:
            greet, self._greet = self._greet, None
            greet(self, held.pop(0))

    def eof_received(self) -> None:
        self._ended("closed")

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.fabric.endpoints.discard(self)
        self._ended("closed" if exc is None else "connection reset")

    # -- the endpoint contract -------------------------------------------

    def release(self) -> None:
        """The handshake is done and handlers are installed: dispatch
        the frames that came behind the first one, then report an end
        of the connection that happened meanwhile."""
        held, self._held = self._held, None
        for frame in held:
            self.dispatch(frame)
        if self.lost_reason is not None:
            self._closed(self.lost_reason)

    def dispatch(self, frame) -> None:
        if self.open and self.on_message is not None:
            self.on_message(frame, self)
            self.fabric.wake()

    def send(self, payload, nbytes: Optional[int] = None,
             extra_delay_ms: float = 0.0) -> None:
        """Queue one frame.  ``nbytes`` and ``extra_delay_ms`` are the
        simulator's charge accounting — here the bytes and the CPU time
        are real, so both are accepted and ignored."""
        if not self.open:
            raise ConnectionClosedError(
                "%s -> %s" % (self.local_name, self.peer_name))
        self.transport.write(encode_frame(payload))

    def close(self) -> None:
        """Orderly close; the peer sees ``on_close('closed')`` via EOF.
        Idempotent, and (matching netsim) the initiator's own
        ``on_close`` does not fire."""
        if self.open:
            self._shut()

    def _ended(self, reason: str) -> None:
        """The connection ended: EOF, a reset, or a frame that does not
        decode.  Before :meth:`release` the end waits for it, and
        before the first frame the handshake fails."""
        if self._held is None:
            self._closed(reason)
            return
        if self.lost_reason is None:
            self.lost_reason = reason
        if self._greet is None:
            self.transport.close()
            return
        greet, self._greet = self._greet, None
        self._shut()
        greet(self, None)

    def _closed(self, reason: str) -> None:
        if not self.open:
            return
        self._shut()
        if self.on_close is not None:
            self.on_close(reason, self)
            self.fabric.wake()

    def _shut(self) -> None:
        self.open = False
        if self._forget is not None:
            self._forget(self)
        if self.transport is not None:
            self.transport.close()

    def __repr__(self) -> str:
        return "RealEndpoint(%s <-> %s, %s)" % (
            self.local_name, self.peer_name,
            "open" if self.open else "closed")


class RealNode:
    """One host's real listener: services plus accepted endpoints."""

    def __init__(self, fabric, host_name: str,
                 registry: HostRegistry,
                 bind_address: str = "127.0.0.1") -> None:
        self.fabric = fabric
        self.host_name = host_name
        self.registry = registry
        self.bind_address = bind_address
        #: service name -> acceptor(endpoint, payload).
        self.services: Dict[str, Callable] = {}
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        #: the open endpoints this node accepted, for shutdown cleanup
        #: (an endpoint removes itself when it closes).
        self._accepted: Set[RealEndpoint] = set()
        self.listen(STATUS_SERVICE, self._on_status)

    # -- service registry (NetworkNode.listen/unlisten equivalent) -------

    def listen(self, service: str, acceptor: Callable) -> None:
        self.services[service] = acceptor

    def unlisten(self, service: str) -> None:
        self.services.pop(service, None)

    def _on_status(self, endpoint, payload) -> None:
        """Answer a doctor probe: one frame of node inventory.  The
        service list names every live LPM's accept service, so the
        probe learns which users have LPMs here without bootstrapping
        one itself."""
        endpoint.send({"ok": True, "host": self.host_name,
                       "port": self.port,
                       "services": sorted(self.services)})

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Bind to port 0, discover the kernel-assigned port, publish."""
        self.server = self.fabric.loop.run_until_complete(
            self.fabric.loop.create_server(self._new_endpoint,
                                           self.bind_address, 0))
        self.port = self.server.sockets[0].getsockname()[1]
        self.registry.publish(self.host_name, self.bind_address,
                              self.port)

    def _new_endpoint(self) -> RealEndpoint:
        """The protocol of one accepted connection; it is tracked from
        the start, so :meth:`close` reaches one still in its handshake."""
        endpoint = RealEndpoint(self.fabric, self.host_name, "?",
                                greet=self._on_hello,
                                forget=self._accepted.discard)
        self._accepted.add(endpoint)
        return endpoint

    def _on_hello(self, endpoint: RealEndpoint, hello) -> None:
        if hello is not None:
            self.fabric.loop.create_task(
                self._accept_connection(endpoint, hello))

    async def _accept_connection(self, endpoint: RealEndpoint,
                                 hello) -> None:
        """Accept one dialled connection: look up its service, answer,
        and hand the endpoint to the service's acceptor."""
        if not endpoint.open:
            return
        service = hello.get("connect") if isinstance(hello, dict) else None
        acceptor = self.services.get(service)
        if acceptor is None:
            endpoint.send(
                {"ok": False, "error": "no such service: %r" % (service,)})
            endpoint.close()
            return
        endpoint.peer_name = hello.get("src", "?")
        endpoint.send({"ok": True, "host": self.host_name})
        acceptor(endpoint, hello.get("payload"))
        self.fabric.wake()
        endpoint.release()

    def close(self) -> None:
        """Stop listening, close accepted endpoints, withdraw the
        registry entry — nothing of this host outlives the node."""
        if self.server is not None:
            self.server.close()
            self.fabric.loop.run_until_complete(
                self.server.wait_closed())
            self.server = None
        for endpoint in list(self._accepted):
            endpoint.close()
        self.registry.withdraw(self.host_name)
