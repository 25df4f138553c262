"""Per-host listener and the real TCP endpoint type.

A :class:`RealNode` is one host's presence on the real network: a
single asyncio server socket (bound to port 0 — the kernel picks an
ephemeral port, discovered from the bound socket and published to the
registry) multiplexing every service the host offers, the way the
simulator's ``NetworkNode`` multiplexes named services on one host.

A :class:`RealEndpoint` satisfies the endpoint contract documented in
:mod:`repro.core.fabric`: the protocol stack (and ``PPMClient``) uses
it exactly as it uses a netsim ``StreamEndpoint``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Set

from ..errors import ConnectionClosedError
from .framing import FrameDecoder, FramingError, encode_frame
from .registry import HostRegistry

#: Built-in liveness/inventory service every node answers (the probe
#: surface ``repro doctor`` dials; see ``docs/OPERATIONS.md``).  One
#: request frame in, one status frame out, no LPM side effects.
STATUS_SERVICE = "__status__"

#: Most bytes taken off a socket in one read.
READ_BYTES = 65536


def cap_socket_reads(writer: asyncio.StreamWriter) -> None:
    """Have the transport ask its socket for ``READ_BYTES`` per read
    instead of asyncio's 256 KiB.  The selector transport allocates
    its ``recv()`` size afresh for every read and shrinks it to what
    arrived.  At 256 KiB that is more than malloc keeps spare at the
    top of the heap, so a process grows and trims its heap once per
    message (two ``brk`` calls and two page faults, a fifth of a
    ping's client CPU) or does not, depending on what else it has
    allocated: the same code ran at two speeds and changed between
    them in mid-run."""
    writer.transport.max_size = READ_BYTES


class RealEndpoint:
    """One side of a live TCP connection (endpoint contract)."""

    def __init__(self, fabric, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, local_name: str,
                 peer_name: str,
                 decoder: Optional[FrameDecoder] = None,
                 forget: Optional[Callable] = None) -> None:
        self.fabric = fabric
        self.reader = reader
        self.writer = writer
        self.local_name = local_name
        self.peer_name = peer_name
        self.open = True
        self.on_message: Optional[Callable] = None
        self.on_close: Optional[Callable] = None
        self.context = None
        self._decoder = decoder if decoder is not None else FrameDecoder()
        self._reader_task: Optional[asyncio.Task] = None
        #: ``forget(endpoint)`` runs once when this endpoint closes,
        #: whichever side closed first (the accepting node's cleanup).
        self._forget = forget

    def start(self) -> None:
        """Begin pulling frames off the socket (idempotent)."""
        if self._reader_task is None and self.open:
            self._reader_task = self.fabric.loop.create_task(
                self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while self.open:
                data = await self.reader.read(READ_BYTES)
                if not data:
                    self._closed("closed")
                    return
                for frame in self._decoder.feed(data):
                    self.dispatch(frame)
        except (ConnectionError, OSError):
            self._closed("connection reset")
        except FramingError:
            self._closed("protocol error")
        except asyncio.CancelledError:
            raise

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
        self.writer.write(encode_frame(payload))

    def close(self) -> None:
        """Orderly close; the peer sees ``on_close('closed')`` via EOF.
        Idempotent, and (matching netsim) the initiator's own
        ``on_close`` does not fire."""
        if not self.open:
            return
        self._shut()
        if self._reader_task is not None:
            self._reader_task.cancel()

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
        try:
            self.writer.close()
        except OSError:
            pass

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
            asyncio.start_server(self._accept_connection,
                                 self.bind_address, 0))
        self.port = self.server.sockets[0].getsockname()[1]
        self.registry.publish(self.host_name, self.bind_address,
                              self.port)

    async def _accept_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        cap_socket_reads(writer)
        decoder = FrameDecoder()
        frames = []
        try:
            while not frames:
                data = await reader.read(READ_BYTES)
                if not data:
                    writer.close()
                    return
                frames = decoder.feed(data)
        except (ConnectionError, OSError, FramingError):
            writer.close()
            return
        hello = frames[0]
        service = hello.get("connect") if isinstance(hello, dict) else None
        acceptor = self.services.get(service)
        if acceptor is None:
            writer.write(encode_frame(
                {"ok": False, "error": "no such service: %r" % (service,)}))
            writer.close()
            return
        endpoint = RealEndpoint(self.fabric, reader, writer,
                                local_name=self.host_name,
                                peer_name=hello.get("src", "?"),
                                decoder=decoder,
                                forget=self._accepted.discard)
        self._accepted.add(endpoint)
        writer.write(encode_frame({"ok": True, "host": self.host_name}))
        acceptor(endpoint, hello.get("payload"))
        self.fabric.wake()
        for frame in frames[1:]:
            endpoint.dispatch(frame)
        endpoint.start()

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
