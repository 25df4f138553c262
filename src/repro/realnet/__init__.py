"""The real-network backend: the PPM over asyncio TCP processes.

The paper's PPM is "a distributed program implemented as a collection
of user-level processes" on a real internetwork; this package is the
fabric implementation (see :mod:`repro.core.fabric`) that makes it so.
Each participating host is one OS process (``python -m repro serve``)
running a real ``pmd`` listener and, on demand, a real LPM; tools are
:class:`repro.core.client.PPMClient` instances running unmodified over
an :class:`AsyncioFabric` — the same client code that drives the
simulator drives live TCP sockets here.

Layout:

* :mod:`~repro.realnet.framing` — length-prefixed framing of the
  existing ``core.wire`` Message encoding over byte streams.
* :mod:`~repro.realnet.registry` — a shared JSON file mapping host
  names to ``(address, port)`` pairs (the bind-to-port-0 discovery).
* :mod:`~repro.realnet.fabric` — the asyncio event loop behind the
  fabric contract: clock, timers, ``connect``, ``run_until_true``.
* :mod:`~repro.realnet.node` — per-host listener (services, accepted
  endpoints) plus the TCP endpoint type.
* :mod:`~repro.realnet.pmd` — the real process-manager daemon serving
  the Figure 2 bootstrap on the ``inetd`` service.
* :mod:`~repro.realnet.lpm` — the real LPM: tool verbs over
  :class:`repro.localos.RealBackend`, token-authenticated sibling
  channels, LOCATE across hosts.
* :mod:`~repro.realnet.serve` / :mod:`~repro.realnet.session` — the
  host daemon entry point and the client-side session/launch helpers.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fabric": ("AsyncioFabric",),
    ".registry": ("HostRegistry",),
    ".session": ("RealSession", "launch_hosts"),
})
