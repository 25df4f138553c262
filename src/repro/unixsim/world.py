"""The world: simulator + network + hosts + shared configuration.

A :class:`World` is the top-level container every test, example, and
benchmark builds first.  It owns the simulated clock, the network, the
trace recorder, and the administrative actions the paper assigns to
"network system administrators": creating consistent accounts across
trusting machines and writing ``.recovery`` files.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import DEFAULT_CONFIG, PPMConfig
from ..errors import NoSuchHostError
from ..latency import DEFAULT_COST_MODEL, CostModel, HostClass
from ..netsim.fabric import SimFabric
from ..netsim.network import Network
from ..netsim.simulator import Simulator
from ..tracing.events import Granularity
from ..tracing.recorder import TraceRecorder
from .host import Host
from .ipc import UserIpc
from .users import UserAccount


class World:
    """Everything that exists in one simulation run."""

    def __init__(self, seed: int = 0,
                 config: PPMConfig = DEFAULT_CONFIG,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 granularity: Granularity = Granularity.FINE) -> None:
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim)
        self.config = config
        self.cost_model = cost_model
        self.hosts: Dict[str, Host] = {}
        #: The backend seam (see :mod:`repro.core.fabric`): the protocol
        #: stack reaches the simulator only through this adapter.
        self.fabric = SimFabric(
            self.sim, self.network,
            tool_delay_fn=lambda host_name: self.hosts[host_name]
            .cpu_cost(self.cost_model.tool_ipc_ms))
        self.recorder = TraceRecorder(lambda: self.sim.now_ms,
                                      granularity=granularity)
        #: User-level IPC fabric (4.3BSD sockets between processes).
        self.ipc = UserIpc(self)
        #: Installed by :func:`repro.core.install`; the pmd calls it to
        #: create LPM instances without unixsim importing the core layer.
        self.lpm_factory: Optional[Callable] = None
        #: Registry of live LPM objects, ``(host, user) -> LPM``,
        #: maintained by the installed factory.
        self.lpms: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_host(self, name: str,
                 host_class: HostClass = HostClass.VAX_780) -> Host:
        host = Host(self, name, host_class)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NoSuchHostError(name) from None

    def ethernet(self, names: Optional[List[str]] = None,
                 latency_ms: Optional[float] = None) -> None:
        """Join hosts on one shared segment (the Berkeley testbed)."""
        if names is None:
            names = list(self.hosts)
        if latency_ms is None:
            latency_ms = self.cost_model.wire_ms
        self.network.ethernet(names, latency_ms=latency_ms)

    def add_user(self, name: str, uid: int, password: str = "secret",
                 hosts: Optional[List[str]] = None) -> UserAccount:
        """Create a consistent account across trusting machines."""
        account = UserAccount.create(name, uid, password)
        targets = hosts if hosts is not None else list(self.hosts)
        for host_name in targets:
            self.host(host_name).add_account(account)
        return account

    def install_name_server(self, host_name: str):
        """Start the CCS name server daemon (section 5's alternative to
        ``.recovery`` files) on the named host."""
        from .nameserver import CcsNameServer
        self.name_server = CcsNameServer(self.host(host_name))
        return self.name_server

    def write_recovery_file(self, user: str, priority_hosts: List[str],
                            hosts: Optional[List[str]] = None) -> None:
        """Install the user's ``.recovery`` list (section 5) — it is
        assumed to "exist in all hosts where a user normally executes
        processes"."""
        targets = hosts if hosts is not None else list(self.hosts)
        for host_name in targets:
            self.host(host_name).fs.write_recovery_file(user, priority_hosts)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    @property
    def now_ms(self) -> float:
        return self.sim.now_ms

    def run_for(self, duration_ms: float) -> None:
        self.sim.run_for(duration_ms)

    def run_until_true(self, predicate: Callable[[], bool],
                       timeout_ms: float = 600_000.0) -> bool:
        return self.sim.run_until_true(predicate, timeout_ms=timeout_ms)

    def doctor(self, alerts=None, baseline=None):
        """Health-check this world: probe it and run every ops check.

        Read-only and opt-in (no messages, no RNG use, no events
        scheduled) — see :mod:`repro.ops`.  Returns a
        :class:`~repro.ops.checks.DoctorReport`.
        """
        from ..ops.doctor import probe_world, run_doctor
        view = probe_world(self, alerts=alerts)
        return run_doctor(view, baseline=baseline)

    def __repr__(self) -> str:
        return "World(%d hosts, t=%.1f ms)" % (len(self.hosts), self.now_ms)
