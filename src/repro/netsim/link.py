"""Point-to-point links between hosts.

The paper's testbed was a single Ethernet; the simulator nonetheless
models explicit links so that network partitions (section 5) and
internetworks ("large number of nodes in an internetwork of computers",
section 2) can be expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Link:
    """An undirected link with fixed latency and optional bandwidth cap.

    Slotted: full-mesh topologies carry O(n²) of these and the routing
    BFS touches them constantly, so the per-instance dict is pure waste
    (surfaced by the runner's ``--profile`` output).
    """

    a: str
    b: str
    latency_ms: float = 5.0
    #: Bytes transferred per millisecond; 1250 ~= 10 Mb/s Ethernet.
    bandwidth_bytes_per_ms: float = 1250.0
    up: bool = True
    #: Links crossing a partition boundary are forced down independently
    #: of administrative state.
    partitioned: bool = field(default=False, repr=False)

    def endpoints(self) -> frozenset:
        return frozenset((self.a, self.b))

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ValueError("%r is not an endpoint of %r" % (name, self))

    @property
    def usable(self) -> bool:
        """True when traffic can cross: administratively up and not cut
        by a partition."""
        return self.up and not self.partitioned

    def transfer_delay_ms(self, nbytes: int) -> float:
        """Propagation plus serialisation delay for one message."""
        return self.latency_ms + nbytes / self.bandwidth_bytes_per_ms
