"""Datagram transport — the paper's scalability alternative.

Section 3: "A datagram based scheme would scale much better, but would
require individual authentication for each message."  This transport
exists so the A1 ablation can quantify that trade-off: no connection
state, no setup cost, but a per-message authentication charge and no
delivery guarantee (messages onto dead paths are silently dropped, and
there is no ordering floor).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import UnreachableHostError
from ..latency import DEFAULT_COST_MODEL, CostModel
from .network import Network


class DatagramTransport:
    """Connectionless messaging between hosts.

    Receivers register with :meth:`bind`; each delivered datagram invokes
    ``handler(payload, src_name)`` after wire delay plus the per-message
    authentication cost.
    """

    def __init__(self, network: Network,
                 cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        self.network = network
        self.sim = network.sim
        self.cost_model = cost_model
        self._handlers: dict = {}

    def bind(self, host: str, port: str,
             handler: Callable[[object, str], None]) -> None:
        """Attach a datagram handler to ``(host, port)``."""
        self._handlers[(host, port)] = handler

    def unbind(self, host: str, port: str) -> None:
        self._handlers.pop((host, port), None)

    def send(self, src: str, dst: str, port: str, payload,
             nbytes: int = 256,
             on_dropped: Optional[Callable[[str], None]] = None) -> None:
        """Fire one datagram; silently dropped when undeliverable."""
        stats = self.network.stats
        stats.datagrams_sent += 1
        stats.datagram_bytes += nbytes
        try:
            wire = self.network.transit_delay_ms(src, dst, nbytes)
        except UnreachableHostError:
            stats.datagrams_dropped += 1
            if on_dropped is not None:
                on_dropped("unreachable")
            return

        auth = self.cost_model.datagram_auth_ms
        deliver_at = self.sim.now_ms + wire + auth

        def deliver() -> None:
            reason = None
            node = self.network.nodes.get(dst)
            if node is None or not node.up:
                reason = "host down"
            else:
                handler = self._handlers.get((dst, port))
                if handler is None:
                    reason = "port unreachable"
                else:
                    handler(payload, src)
            if reason is not None:
                stats.datagrams_dropped += 1
                if on_dropped is not None:
                    on_dropped(reason)

        self.sim.schedule_at(deliver_at, deliver)
