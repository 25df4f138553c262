"""Latency model calibrated against the paper's measurements.

The paper measured three host types (VAX 11/780, VAX 11/750, SUN II) on
one Berkeley Ethernet.  Table 1 gives the kernel-to-LPM 112-byte message
delivery time as a function of the time-averaged run-queue length ``la``;
Table 2 gives process creation/control times by *topological distance* in
the LPM overlay (the physical network is a single Ethernet, so an extra
overlay hop adds only forwarding cost); Table 3 gives snapshot-gathering
times for four overlay topologies.

We reproduce those costs with two pieces:

* :func:`kernel_message_delay_ms` interpolates Table 1's anchors per host
  class, and :func:`load_factor` reuses the same anchors to scale every
  other CPU-bound cost with load, so all load sensitivity in the simulator
  comes from one calibrated source.

* :class:`CostModel` holds the per-operation constants.  They were solved
  from Table 2 (see DESIGN.md section 2): with one-way tool IPC ``T``,
  one-way sibling-message endpoint cost ``E``, local fork+exec+adopt ``F``,
  creation-server fork ``f`` and signal-plus-confirmation ``S``::

      2T + F            = 77   (create, within host)
      2T + S            = 30   (stop, within host)
      2T + 2E + S       = 199  (stop, one hop)       -> E = 84.5
      2T + 2(E + h) + S = 210  (stop, two hops)      -> h = 5.5 per extra hop
      2T + 2E + f       = 177  (remote create, section 8)

  which yields ``T = 3``, ``f = 2``, ``F = 71``, ``S = 24``, with the
  per-message endpoint cost ``E`` split into a sender share of 35 ms, a
  receiver share of 44 ms, one warm handler acquisition of 1 ms per
  blocking request, and 5 ms of wire time per overlay hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from .errors import ConfigError


class HostClass(Enum):
    """CPU classes measured in the paper, plus a modern reference point."""

    VAX_780 = "VAX 11/780"
    VAX_750 = "VAX 11/750"
    SUN_2 = "SUN II"


#: Table 1 anchors: (load-band midpoint, delivery time in ms).  The paper
#: leaves the VAX 11/780 blank for the (3, 4] band; we extrapolate with the
#: slope of its last two bands.
_KERNEL_MESSAGE_ANCHORS: Dict[HostClass, List[Tuple[float, float]]] = {
    HostClass.VAX_780: [(0.5, 7.2), (1.5, 9.8), (2.5, 13.6), (3.5, 17.4)],
    HostClass.VAX_750: [(0.5, 7.2), (1.5, 9.6), (2.5, 12.8), (3.5, 18.9)],
    HostClass.SUN_2: [(0.5, 8.31), (1.5, 14.13), (2.5, 22.0), (3.5, 42.7)],
}


def _interpolate(anchors: List[Tuple[float, float]], x: float) -> float:
    """Piecewise-linear interpolation, clamped below the first anchor and
    extrapolated with the final slope above the last one."""
    if x <= anchors[0][0]:
        return anchors[0][1]
    for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    (x0, y0), (x1, y1) = anchors[-2], anchors[-1]
    slope = (y1 - y0) / (x1 - x0)
    return y1 + slope * (x - x1)


def kernel_message_delay_ms(host_class: HostClass, load_average: float,
                            size_bytes: int = 112) -> float:
    """Delivery time of a kernel-to-LPM message (Table 1).

    ``load_average`` is the time-averaged run-queue length ``la``.  Sizes
    other than the measured 112 bytes scale the copy portion of the cost
    (we attribute half the base cost to per-byte copying).
    """
    if load_average < 0:
        raise ConfigError("load_average must be >= 0")
    base = _interpolate(_KERNEL_MESSAGE_ANCHORS[host_class],
                        max(load_average, 0.0))
    if size_bytes == 112:
        return base
    copy_share = 0.5
    return base * (1 - copy_share) + base * copy_share * (size_bytes / 112.0)


def load_factor(host_class: HostClass, load_average: float) -> float:
    """Multiplier applied to CPU-bound costs under load.

    Normalised so that a lightly loaded host (``la = 0.5``, the midpoint
    of Table 1's first band) has factor 1.0.  Reusing the Table 1 anchors
    means every cost in the simulator degrades with load in the same
    calibrated way the kernel-message path was measured to.

    Every class's first anchor sits at 0.5, so any lighter load is
    exactly 1.0 and skips the interpolation.
    """
    if load_average <= 0.5:
        return 1.0
    anchors = _KERNEL_MESSAGE_ANCHORS[host_class]
    light = anchors[0][1]
    return _interpolate(anchors, load_average) / light


@dataclass(frozen=True)
class CostModel:
    """Per-operation base costs (ms) at light load on a VAX 11/780.

    Each CPU-bound cost is multiplied by :func:`load_factor` for the host
    executing it.  Wire costs are load independent (one shared Ethernet).
    """

    #: One-way tool <-> LPM IPC over a local stream (``T``).
    tool_ipc_ms: float = 3.0

    #: Sender-side share of a sibling LPM message (protocol processing).
    #: A blocking request additionally pays handler acquisition
    #: (``handler_reuse_ms`` warm, ``handler_spawn_ms`` cold).
    sibling_send_ms: float = 35.0

    #: Receiver-side share of a sibling LPM message (delivery, dispatch,
    #: unmarshalling).
    sibling_recv_ms: float = 44.0

    #: Physical traversal of the Ethernet segment, per hop.
    wire_ms: float = 5.0

    #: Relay cost at an intermediate LPM dispatcher (no handler needed).
    forward_ms: float = 0.5

    #: fork+exec+adopt performed on behalf of a tool request (``F``):
    #: fork 20, exec 30, adoption bookkeeping + kernel notifications 21.
    fork_ms: float = 20.0
    exec_ms: float = 30.0
    adopt_ms: float = 21.0

    #: fork performed by an LPM acting as creation server for a remote
    #: request (``f``); the child is pre-configured, so this is cheap.
    server_fork_ms: float = 2.0

    #: Signal delivery plus the kernel's state-change confirmation the LPM
    #: waits for before acknowledging a control request (``S``).
    signal_ms: float = 24.0

    #: Serialising one process record into a snapshot reply.
    snapshot_record_ms: float = 3.4

    #: Merging one remote snapshot reply into the accumulating forest.
    snapshot_merge_ms: float = 6.0

    #: Connection establishment: TCP-like three-way handshake plus the
    #: channel authentication of section 3 (one round trip + checks).
    connect_ms: float = 120.0

    #: LPM process creation by the pmd (expensive, hence time-to-live).
    lpm_spawn_ms: float = 260.0

    #: pmd lookup / registration step.
    pmd_step_ms: float = 12.0

    #: Datagram per-message authentication overhead (section 3: a datagram
    #: scheme "would require individual authentication for each message").
    datagram_auth_ms: float = 9.0

    #: Dispatcher examining one incoming message.
    dispatch_ms: float = 1.5

    #: Creating a fresh handler process when the pool has no idle one.
    handler_spawn_ms: float = 14.0

    #: Handing a request to an existing idle handler.
    handler_reuse_ms: float = 1.0

    def sibling_one_way_ms(self, hops: int, send_factor: float = 1.0,
                           recv_factor: float = 1.0) -> float:
        """End-to-end one-way cost of a sibling message over ``hops``
        overlay hops (hops >= 1): endpoint costs once, wire per hop,
        forwarding at each intermediate LPM."""
        if hops < 1:
            raise ConfigError("hops must be >= 1")
        return (self.sibling_send_ms * send_factor
                + self.sibling_recv_ms * recv_factor
                + self.wire_ms * hops
                + self.forward_ms * (hops - 1))


#: The calibrated default model used throughout the reproduction.
DEFAULT_COST_MODEL = CostModel()
