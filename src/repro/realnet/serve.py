"""The serve process: one real host of the PPM overlay.

``python -m repro serve --host a --registry /tmp/reg.json`` turns the
current OS process into one *host*: an :class:`AsyncioFabric`, a
:class:`RealNode` listening on an ephemeral TCP port, and a
:class:`RealPmd` on the well-known ``inetd`` service.  Launch N of
these and they form a live PPM — each user's LPMs appear on demand as
tools bootstrap in, and sibling channels between hosts are dialled
lazily exactly as in the simulator.

The process exits cleanly on SIGTERM/SIGINT or when the wall-clock
budget runs out, tearing down LPMs (killing their managed processes),
closing the listener, and withdrawing the registry entry so no stale
address lingers for the next run.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Optional

from .fabric import AsyncioFabric
from .node import RealNode
from .pmd import RealPmd
from .registry import HostRegistry


def serve_host(host_name: str, registry_path: str,
               bind_address: str = "127.0.0.1",
               budget_s: Optional[float] = None,
               trace_spans: bool = False,
               ready_line: bool = True,
               share_circuits: Optional[bool] = None) -> int:
    """Run one real host until signalled or out of budget.

    Returns a process exit status (0 on a clean run).  When
    ``ready_line`` is set, prints ``READY <host> <port>`` to stdout
    once the listener is bound — launchers wait on that line rather
    than polling the registry.
    """
    if share_circuits is None:
        share_circuits = os.environ.get("REPRO_CIRCUIT_SHARING") == "1"
    registry = HostRegistry(registry_path)
    fabric = AsyncioFabric(registry, local_host=host_name)
    if trace_spans:
        fabric.enable_span_tracing()
    node = RealNode(fabric, host_name, registry,
                    bind_address=bind_address)
    pmd = RealPmd(fabric, node, share_circuits=share_circuits)
    node.start()
    if ready_line:
        print("READY %s %d" % (host_name, node.port), flush=True)

    # Fully event-driven from here: the loop sleeps in the kernel until
    # a connection, a timer, or a stop signal — no polling, so an idle
    # fleet costs nothing even on a one-CPU machine.
    for signum in (signal.SIGTERM, signal.SIGINT):
        fabric.loop.add_signal_handler(signum, fabric.loop.stop)
    if budget_s is not None:
        fabric.schedule(budget_s * 1000.0, fabric.loop.stop)
    try:
        fabric.loop.run_forever()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            fabric.loop.remove_signal_handler(signum)
        pmd.shutdown()
        node.close()
        fabric.close()
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run one real PPM host process.")
    parser.add_argument("--host", required=True,
                        help="overlay host name to serve")
    parser.add_argument("--registry", required=True,
                        help="shared host-registry file")
    parser.add_argument("--bind", default="127.0.0.1",
                        help="address to bind (default 127.0.0.1)")
    parser.add_argument("--budget-s", type=float, default=None,
                        help="exit after this many wall seconds")
    parser.add_argument("--trace-spans", action="store_true",
                        help="enable span tracing in this process")
    parser.add_argument("--share-circuits", action="store_true",
                        default=None,
                        help="multiplex all users' sibling channels to "
                             "a peer host over one shared TCP circuit "
                             "(default: on when REPRO_CIRCUIT_SHARING=1)")
    options = parser.parse_args(argv)
    return serve_host(options.host, options.registry,
                      bind_address=options.bind,
                      budget_s=options.budget_s,
                      trace_spans=options.trace_spans,
                      share_circuits=options.share_circuits)


if __name__ == "__main__":
    sys.exit(main())
