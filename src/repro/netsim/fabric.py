"""The default backend: the discrete-event simulator behind the fabric.

:class:`SimFabric` adapts the netsim substrate to the fabric contract
documented in :mod:`repro.core.fabric`.  It holds no state of its own —
every call delegates to the :class:`~repro.netsim.simulator.Simulator`,
:class:`~repro.netsim.network.Network`, or
:class:`~repro.netsim.datagram.DatagramTransport` the world already
built — so wrapping netsim in it changes nothing about event ordering,
wire bytes, or simulated time.  (The byte-identity of BENCH ``sim_ms``
across the fabric refactor is asserted by the perf runner.)

This module is duck-typed against the contract rather than inheriting
it: netsim is the bottom layer of the package and must not import
``repro.core`` (enforced by ``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from .simulator import Simulator
from .stream import DEFAULT_DETECT_MS, StreamConnection


class SimFabric:
    """Fabric over one simulated world (see :mod:`repro.core.fabric`)."""

    backend_name = "netsim"

    def __init__(self, sim: Simulator, network,
                 datagrams=None,
                 tool_delay_fn: Optional[Callable[[str], float]] = None
                 ) -> None:
        self.sim = sim
        self.network = network
        self.datagrams = datagrams
        #: Injected by the world: host name -> sender-side tool IPC
        #: cost under current load (Table 2's ``T`` scaled by
        #: :func:`repro.latency.load_factor`).
        self._tool_delay_fn = tool_delay_fn

    # -- clock and timers ------------------------------------------------

    @property
    def now_ms(self) -> float:
        return self.sim.now_ms

    def schedule(self, delay_ms: float, callback: Callable, *args):
        return self.sim.schedule(delay_ms, callback, *args)

    def cancel(self, handle) -> None:
        self.sim.cancel(handle)

    def run_until_true(self, predicate: Callable[[], bool],
                       timeout_ms: float = 600_000.0) -> bool:
        return self.sim.run_until_true(predicate, timeout_ms=timeout_ms)

    # -- observability ---------------------------------------------------

    @property
    def tracer(self):
        return self.sim.tracer

    # -- connections -----------------------------------------------------

    def connect(self, src: str, dst: str, service: str, payload=None,
                setup_ms: float = 0.0,
                on_established: Optional[Callable] = None,
                on_failed: Optional[Callable] = None,
                detect_ms: float = DEFAULT_DETECT_MS):
        return StreamConnection.connect(
            self.network, src, dst, service, payload=payload,
            setup_ms=setup_ms, on_established=on_established,
            on_failed=on_failed, detect_ms=detect_ms)

    # -- datagram port ---------------------------------------------------

    def datagram_bind(self, host: str, port: str,
                      handler: Callable) -> None:
        self.datagrams.bind(host, port, handler)

    def datagram_unbind(self, host: str, port: str) -> None:
        self.datagrams.unbind(host, port)

    def datagram_send(self, src: str, dst: str, port: str, payload,
                      nbytes: int = 256,
                      extra_delay_ms: float = 0.0) -> None:
        self.datagrams.send(src, dst, port, payload, nbytes=nbytes,
                            extra_delay_ms=extra_delay_ms)

    # -- cost accounting -------------------------------------------------

    def tool_send_delay_ms(self, host_name: str) -> float:
        if self._tool_delay_fn is None:
            return 0.0
        return self._tool_delay_fn(host_name)
