"""The asyncio TCP implementation of the fabric contract.

One :class:`AsyncioFabric` per OS process owns one asyncio event loop.
Nothing here runs on background threads: the loop advances only while
someone pumps it — a serve process pumps it forever, a client pumps it
inside :meth:`AsyncioFabric.run_until_true` exactly the way the
simulator backend advances virtual time inside the same call.  That
keeps the protocol stack's callback model identical on both backends:
callbacks fire while the caller is blocked in ``run_until_true``.

The pump is event-driven: ``run_until_true`` sleeps in the selector
and re-evaluates its predicate only after the fabric handed something
to protocol code, which is wherever realnet calls upward and then
:meth:`AsyncioFabric.wake` —

* ``RealEndpoint.dispatch`` (after ``on_message``) and
  ``RealEndpoint._closed`` (after ``on_close``),
* the ``connect`` outcomes, ``on_established`` / ``on_failed``,
* the acceptor call in ``RealNode._accept_connection`` (a client and a
  node may share one fabric),
* every timer armed through :meth:`AsyncioFabric.schedule`,
* and the pump's own timeout, which makes it return ``False``.

A predicate that changes by any other means is seen only at the
timeout.  ``run_until_true`` is not re-entrant: a callback running
under it (or under a serve process's ``run_forever``) must not call it.

The clock is wall time in milliseconds since the fabric was built, so
span tracers (which only need a ``now_ms``) produce real latency
histograms over real sockets.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from ..core.fabric import DEFAULT_DETECT_MS, Fabric
from ..perf import PERF
from ..perf.spans import DEFAULT_MAX_SPANS, SpanTracer
from .framing import FrameDecoder, encode_frame
from .node import READ_BYTES, RealEndpoint, cap_socket_reads
from .registry import HostRegistry


class AsyncioFabric(Fabric):
    """Fabric over real TCP sockets (see :mod:`repro.core.fabric`)."""

    backend_name = "realnet"

    #: Overridden per instance; class-level default keeps the base
    #: class's property from intercepting reads before assignment.
    tracer = None

    def __init__(self, registry: HostRegistry,
                 local_host: Optional[str] = None,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self.registry = registry
        self.local_host = local_host
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self._epoch = time.monotonic()
        self.tracer = None
        #: The future a blocked ``run_until_true`` sleeps on; None while
        #: nobody pumps (always, in a serve process).
        self._waiter: Optional[asyncio.Future] = None

    # -- clock and timers ------------------------------------------------

    @property
    def now_ms(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def schedule(self, delay_ms: float, callback: Callable, *args):
        return self.loop.call_later(max(0.0, delay_ms) / 1000.0,
                                    self._fire, callback, args)

    def _fire(self, callback: Callable, args: tuple) -> None:
        callback(*args)
        self.wake()

    def cancel(self, handle) -> None:
        if handle is not None:
            handle.cancel()

    def wake(self) -> None:
        """Protocol code just ran: let a blocked ``run_until_true``
        re-evaluate its predicate.  Called by realnet after every
        upward callback; a no-op when nobody is pumping."""
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def run_until_true(self, predicate: Callable[[], bool],
                       timeout_ms: float = 600_000.0) -> bool:
        if predicate():
            return True
        if self._waiter is not None:
            raise RuntimeError("run_until_true is not re-entrant")
        expired = []

        def expire() -> None:
            expired.append(True)
            self.wake()

        timer = self.loop.call_later(max(0.0, timeout_ms) / 1000.0, expire)
        try:
            while True:
                self._waiter = self.loop.create_future()
                self.loop.run_until_complete(self._waiter)
                PERF.real_pump_wakeups += 1
                if predicate():
                    return True
                if expired:
                    return False
        finally:
            self._waiter = None
            timer.cancel()

    # -- observability ---------------------------------------------------

    def enable_span_tracing(self, max_spans: int = DEFAULT_MAX_SPANS):
        """Attach a span tracer timestamped from this fabric's clock."""
        if self.tracer is None:
            self.tracer = SpanTracer(self, max_spans=max_spans)
        return self.tracer

    # -- connections -----------------------------------------------------

    def connect(self, src: str, dst: str, service: str, payload=None,
                setup_ms: float = 0.0,
                on_established: Optional[Callable] = None,
                on_failed: Optional[Callable] = None,
                detect_ms: float = DEFAULT_DETECT_MS):
        """Dial ``service`` on ``dst`` (resolved through the registry).

        Mirrors the netsim semantics: asynchronous, with exactly one of
        ``on_established(endpoint)`` / ``on_failed(reason)`` firing —
        the latter when the host is unknown, unreachable, or its node
        refuses the service.  ``setup_ms`` is ignored (the handshake
        has real cost here).
        """
        return self.loop.create_task(self._dial(
            src, dst, service, payload, on_established, on_failed))

    async def _dial(self, src: str, dst: str, service: str, payload,
                    on_established, on_failed) -> None:
        def failed(reason: str) -> None:
            if on_failed is not None:
                on_failed(reason)
            self.wake()

        address = self.registry.lookup(dst)
        if address is None:
            failed("unreachable: %s not in registry" % (dst,))
            return
        try:
            reader, writer = await asyncio.open_connection(*address)
        except OSError as exc:
            failed("connect refused: %s" % (exc,))
            return
        PERF.real_connects += 1
        cap_socket_reads(writer)
        writer.write(encode_frame({"connect": service, "src": src,
                                   "payload": payload}))
        decoder = FrameDecoder()
        frames = []
        while not frames:
            data = await reader.read(READ_BYTES)
            if not data:
                writer.close()
                failed("closed during handshake")
                return
            frames = decoder.feed(data)
        answer = frames[0]
        if not isinstance(answer, dict) or not answer.get("ok"):
            writer.close()
            failed(answer.get("error", "refused")
                   if isinstance(answer, dict) else "refused")
            return
        endpoint = RealEndpoint(self, reader, writer, local_name=src,
                                peer_name=answer.get("host", dst),
                                decoder=decoder)
        if on_established is not None:
            on_established(endpoint)
        self.wake()
        # Frames that rode in behind the accept (e.g. an eager
        # HELLO_ACK) dispatch only after the caller installed handlers.
        for frame in frames[1:]:
            endpoint.dispatch(frame)
        endpoint.start()

    # -- datagram port ---------------------------------------------------
    # The realnet backend carries everything over TCP; the datagram
    # transport (PPMConfig(transport="datagram")) is a netsim-only
    # scalability study for now.

    def datagram_bind(self, host: str, port: str,
                      handler: Callable) -> None:
        raise NotImplementedError(
            "realnet has no datagram transport; use transport='stream'")

    def datagram_unbind(self, host: str, port: str) -> None:
        raise NotImplementedError(
            "realnet has no datagram transport; use transport='stream'")

    def datagram_send(self, src: str, dst: str, port: str, payload,
                      nbytes: int = 256,
                      extra_delay_ms: float = 0.0) -> None:
        raise NotImplementedError(
            "realnet has no datagram transport; use transport='stream'")

    # -- cost accounting -------------------------------------------------

    def tool_send_delay_ms(self, host_name: str) -> float:
        return 0.0

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        """Cancel outstanding tasks and close the loop."""
        pending = [task for task in asyncio.all_tasks(self.loop)
                   if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self.loop.close()
