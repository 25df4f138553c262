"""Discrete-event network simulator.

This package is the lowest layer of the reproduction.  It stands in for
the 1986 Berkeley testbed: a simulated clock, an event queue, hosts joined
by links, reliable stream connections (the TCP virtual circuits of
section 3), an alternative datagram transport, and the latency model
calibrated against the paper's measurements (Tables 1-3).
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("Event", "EventQueue"),
    ".simulator": ("Simulator",),
    "..latency": ("HostClass", "CostModel", "DEFAULT_COST_MODEL",
                  "kernel_message_delay_ms", "load_factor"),
    ".link": ("Link",),
    ".network": ("Network", "NetworkNode"),
    ".stream": ("StreamConnection", "StreamEndpoint"),
    ".datagram": ("DatagramTransport",),
})
