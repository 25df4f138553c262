"""The network fabric: the seam between the protocol stack and a backend.

The PPM protocol above this line (transport, RPC, routing, gather,
recovery, the tool client) is machine-independent administrative code —
exactly the property the paper claims for the PPM itself.  Everything
machine-*dependent* — how bytes move, how time advances, how timers
fire — is reached through one object, the **fabric**, injected at
construction (``lpm.fabric`` / ``client`` via ``world.fabric``).

Two implementations exist:

* :class:`repro.netsim.fabric.SimFabric` — the default; wraps the
  discrete-event simulator.  Time is simulated milliseconds, circuits
  are :class:`repro.netsim.stream.StreamConnection` objects, and
  ``run_until_true`` advances the event loop.  Behaviour is
  byte-identical to the pre-fabric direct imports.
* :class:`repro.realnet.fabric.AsyncioFabric` — real asyncio TCP
  sockets between OS processes.  Time is wall-clock milliseconds since
  the fabric started, circuits are framed TCP connections, and
  ``run_until_true`` drives the event loop.

The contract is duck-typed (this module documents it; nothing needs to
inherit from :class:`Fabric`), in the same style as the endpoint
contract below.  ``tools/check_layering.py`` enforces the seam: no
module in ``repro.core`` may import ``repro.netsim`` — the simulator is
reachable only through the fabric instance.

The endpoint contract
---------------------

Every connection the fabric establishes or accepts is represented by an
*endpoint* object with the shape of netsim's ``StreamEndpoint``:

``send(payload, nbytes=..., extra_delay_ms=...)``
    Queue one message (usually a :class:`repro.core.messages.Message`)
    to the peer.  ``nbytes`` is the charged wire size; only
    inter-host senders (the sibling transport) charge bytes, and a
    host-local tool stream leaves the default.  ``extra_delay_ms``
    models sender-side CPU occupancy (real backends may ignore both).
``close()``
    Tear the connection down; the peer's ``on_close`` fires.
``on_message(payload, endpoint)`` / ``on_close(reason, endpoint)``
    Assignable callbacks.
``peer_name`` / ``local_name`` / ``open`` / ``context``
    The remote host name, the local host name, liveness, and a free
    slot for protocol state.
"""

from __future__ import annotations

from typing import Callable, Optional

#: Default time to detect a broken connection (mirrors
#: ``netsim.stream.DEFAULT_DETECT_MS`` without importing it).
DEFAULT_DETECT_MS = 2_000.0


class Fabric:
    """Documented contract for a network backend.

    Subclassing is optional — the protocol stack calls these methods on
    whatever object sits at ``world.fabric``.  ``realnet`` inherits
    from this class so ``NotImplementedError`` marks any hole; the
    netsim adapter merely matches the shape, because netsim is the
    bottom layer and may not import ``repro.core``.
    """

    #: Short identifier (``"netsim"`` / ``"realnet"``), surfaced in
    #: ``perf_stats()`` and diagnostics.
    backend_name = "abstract"

    # -- clock and timers ------------------------------------------------

    @property
    def now_ms(self) -> float:
        """The backend clock, in milliseconds.  Simulated time on
        netsim; wall-clock milliseconds since start on realnet.  Span
        tracers timestamp from this."""
        raise NotImplementedError

    def schedule(self, delay_ms: float, callback: Callable, *args):
        """Run ``callback(*args)`` after ``delay_ms``; returns a timer
        handle for :meth:`cancel`."""
        raise NotImplementedError

    def cancel(self, handle) -> None:
        """Cancel a pending timer; cancelling a fired/None handle is a
        no-op."""
        raise NotImplementedError

    def run_until_true(self, predicate: Callable[[], bool],
                       timeout_ms: float = 600_000.0) -> bool:
        """Drive the backend until ``predicate()`` holds or the timeout
        elapses; returns whether it held.  This is how synchronous
        client calls block on replies on both backends.  The predicate
        is re-evaluated after each callback the fabric delivers; a
        predicate that changes by any other means is seen only at the
        timeout."""
        raise NotImplementedError

    # -- observability ---------------------------------------------------

    @property
    def tracer(self):
        """The attached :class:`repro.perf.spans.SpanTracer`, or None
        when tracing is off."""
        raise NotImplementedError

    # -- connections -----------------------------------------------------

    def connect(self, src: str, dst: str, service: str, payload=None,
                setup_ms: float = 0.0,
                on_established: Optional[Callable] = None,
                on_failed: Optional[Callable] = None,
                detect_ms: float = DEFAULT_DETECT_MS):
        """Open a connection from host ``src`` to ``service`` on host
        ``dst``.

        Asynchronous on both backends: ``on_established(endpoint)``
        fires once the far side accepted (after delivering ``payload``
        to its acceptor), ``on_failed(reason)`` when the host is
        unreachable or nothing listens on the service.  ``setup_ms``
        adds authentication cost on netsim (ignored on realnet, where
        the handshake has real cost); ``detect_ms`` bounds broken-
        connection detection.
        """
        raise NotImplementedError

    # -- cost accounting -------------------------------------------------

    def tool_send_delay_ms(self, host_name: str) -> float:
        """Sender-side CPU delay a tool pays per request on ``host``
        (the Table 2 tool-IPC cost under current load).  Real backends
        return 0 — the cost is real there."""
        raise NotImplementedError
