"""Discrete-event network simulator.

This package is the lowest layer of the reproduction.  It stands in for
the 1986 Berkeley testbed: a simulated clock, an event queue, hosts joined
by links, reliable stream connections (the TCP virtual circuits of
section 3), an alternative datagram transport, and the latency model
calibrated against the paper's measurements (Tables 1-3).
"""

from ..latency import (
    HostClass,
    CostModel,
    DEFAULT_COST_MODEL,
    kernel_message_delay_ms,
    load_factor,
)
from .events import Event, EventQueue
from .simulator import Simulator
from .link import Link
from .network import Network, NetworkNode
from .stream import StreamConnection, StreamEndpoint
from .datagram import DatagramTransport

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "HostClass",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "kernel_message_delay_ms",
    "load_factor",
    "Link",
    "Network",
    "NetworkNode",
    "StreamConnection",
    "StreamEndpoint",
    "DatagramTransport",
]
