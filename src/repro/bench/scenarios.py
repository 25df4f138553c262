"""Scenario builders for the paper's evaluation (Tables 1-3, Figure 5).

All scenarios run against real PPM sessions: LPMs bootstrapped through
inetd/pmd, channels authenticated, processes created and adopted.  The
builders perform the warm-ups the paper's methodology implies ("The
process creation time does not include the time to create the LPM or to
form a connection with it", section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..config import PPMConfig
from ..core.client import PPMClient
from ..core.lpm import install
from ..core.progspec import sleeper_spec, spinner_spec
from ..ids import GlobalPid
from ..latency import HostClass
from ..unixsim.world import World


def fresh_world(host_specs, seed: int = 11,
                config: PPMConfig = None) -> World:
    """A world of ``host_specs`` (``(name, HostClass)`` pairs) on one
    Ethernet, with user ``lfc`` (uid 1001), the PPM installed and the
    recovery file naming the first host."""
    world = World(seed=seed, config=config or PPMConfig())
    for name, host_class in host_specs:
        world.add_host(name, host_class)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    world.write_recovery_file("lfc", [host_specs[0][0]])
    return world


# ----------------------------------------------------------------------
# Table 1: the three measured host types
# ----------------------------------------------------------------------

#: The paper's Table 1 cells: host class -> band -> ms.
TABLE1_PAPER: Dict[HostClass, Dict[tuple, float]] = {
    HostClass.VAX_780: {(0, 1): 7.2, (1, 2): 9.8, (2, 3): 13.6},
    HostClass.VAX_750: {(0, 1): 7.2, (1, 2): 9.6, (2, 3): 12.8,
                        (3, 4): 18.9},
    HostClass.SUN_2: {(0, 1): 8.31, (1, 2): 14.13, (2, 3): 22.0,
                      (3, 4): 42.7},
}


def build_table1_world(host_class: HostClass, seed: int = 11):
    """One measured host plus its LPM and an adopted (sleeping) target
    process whose events exercise the kernel-socket path."""
    world = fresh_world([("probe", host_class)], seed=seed)
    client = PPMClient(world, "lfc", "probe").connect()
    target = client.create_process("target", program=sleeper_spec(None))
    lpm = world.lpms[("probe", "lfc")]
    host = world.host("probe")
    world.run_for(1_000.0)
    return world, host, lpm, client, target


# ----------------------------------------------------------------------
# Table 2: process creation and control vs. topological distance
# ----------------------------------------------------------------------

#: The paper's Table 2 (ms); create one/two hops were N/A, but section 8
#: reports 177 ms for warm remote creation, which we measure as well.
TABLE2_PAPER = {
    ("create", "within"): 77.0,
    ("stop", "within"): 30.0,
    ("terminate", "within"): 30.0,
    ("create", "one-hop"): 177.0,   # from section 8, not the table
    ("stop", "one-hop"): 199.0,
    ("terminate", "one-hop"): 199.0,
    ("stop", "two-hop"): 210.0,
    ("terminate", "two-hop"): 210.0,
}


@dataclass
class Table2Chain:
    """A warmed A-B-C overlay chain for the Table 2 measurements."""

    world: World
    origin: PPMClient
    mid_client: PPMClient
    #: Long-lived processes at each topological distance.
    local: GlobalPid = None
    one_hop: GlobalPid = None
    two_hop: GlobalPid = None

    def fresh_target(self, distance: str) -> GlobalPid:
        """A new disposable process at the given distance, created
        through the already-warm channels."""
        if distance == "within":
            return self.origin.create_process("victim",
                                              program=spinner_spec(None))
        if distance == "one-hop":
            return self.origin.create_process("victim", host="hostB",
                                              program=spinner_spec(None))
        if distance == "two-hop":
            return self.mid_client.create_process(
                "victim", host="hostC", parent=self.one_hop,
                program=spinner_spec(None))
        raise ValueError(distance)


def build_table2_chain(seed: int = 11) -> Table2Chain:
    """Build and warm the chain: hostA - hostB - hostC in the overlay,
    with hostA never holding a direct channel to hostC."""
    world = fresh_world([("hostA", HostClass.VAX_780),
                         ("hostB", HostClass.VAX_780),
                         ("hostC", HostClass.VAX_780)], seed=seed)
    origin = PPMClient(world, "lfc", "hostA").connect()
    chain = Table2Chain(world=world, origin=origin, mid_client=None)
    chain.local = origin.create_process("anchor-local",
                                        program=spinner_spec(None))
    chain.one_hop = origin.create_process("anchor-b", host="hostB",
                                          program=spinner_spec(None))
    chain.mid_client = PPMClient(world, "lfc", "hostB").connect()
    chain.two_hop = chain.mid_client.create_process(
        "anchor-c", host="hostC", parent=chain.one_hop,
        program=spinner_spec(None))
    # Teach hostA the two-hop route (a snapshot carries the paths) and
    # warm every handler on the paths.
    origin.snapshot()
    origin.stop(chain.two_hop)
    origin.cont(chain.two_hop)
    origin.stop(chain.one_hop)
    origin.cont(chain.one_hop)
    assert "hostC" not in world.lpms[("hostA", "lfc")].authenticated_siblings()
    return chain


# ----------------------------------------------------------------------
# Table 3 / Figure 5: the four snapshot topologies
# ----------------------------------------------------------------------

@dataclass
class Figure5Topology:
    """One of the four PPM topologies of Figure 5."""

    name: str
    description: str
    paper_ms: float
    #: overlay edges as (builder-client host, remote host) pairs; the
    #: order determines who opens which channel.
    edges: List[tuple] = field(default_factory=list)
    remote_hosts: List[str] = field(default_factory=list)


#: Topology definitions.  The origin is always hostA; every remote host
#: runs six user processes (section 6).  Elapsed times in the paper:
#: 205 / 225 / 461 / 507 ms.
FIGURE5_TOPOLOGIES: List[Figure5Topology] = [
    Figure5Topology(
        name="topology 1",
        description="origin and one remote host (one hop)",
        paper_ms=205.0,
        edges=[("hostA", "hostB")],
        remote_hosts=["hostB"]),
    Figure5Topology(
        name="topology 2",
        description="origin and two remote hosts (star)",
        paper_ms=225.0,
        edges=[("hostA", "hostB"), ("hostA", "hostC")],
        remote_hosts=["hostB", "hostC"]),
    Figure5Topology(
        name="topology 3",
        description="three remotes fanned out behind one intermediate",
        paper_ms=461.0,
        edges=[("hostA", "hostB"), ("hostB", "hostC"),
               ("hostB", "hostD")],
        remote_hosts=["hostB", "hostC", "hostD"]),
    Figure5Topology(
        name="topology 4",
        description="four remotes fanned out behind one intermediate",
        paper_ms=507.0,
        edges=[("hostA", "hostB"), ("hostB", "hostC"),
               ("hostB", "hostD"), ("hostB", "hostE")],
        remote_hosts=["hostB", "hostC", "hostD", "hostE"]),
]


def build_figure5_topology(topology: Figure5Topology, seed: int = 11,
                           processes_per_host: int = 6):
    """Instantiate one Figure-5 configuration: hosts, overlay edges in
    the prescribed shape, and six processes per remote host.  Returns
    ``(world, origin_client)`` with channels and handlers warmed."""
    hosts = ["hostA"] + list(topology.remote_hosts)
    world = fresh_world([(name, HostClass.VAX_780) for name in hosts],
                        seed=seed)
    clients: Dict[str, PPMClient] = {
        "hostA": PPMClient(world, "lfc", "hostA").connect()}
    created: Dict[str, GlobalPid] = {}
    for src, dst in topology.edges:
        if src not in clients:
            clients[src] = PPMClient(world, "lfc", src).connect()
        parent = created.get(src)
        first = clients[src].create_process(
            "proc-%s-0" % dst, host=dst, parent=parent,
            program=spinner_spec(None))
        created.setdefault(dst, first)
        for index in range(1, processes_per_host):
            clients[src].create_process(
                "proc-%s-%d" % (dst, index), host=dst, parent=parent,
                program=spinner_spec(None))
    origin = clients["hostA"]
    # Verify the overlay has exactly the prescribed shape.
    expected = {frozenset(edge) for edge in topology.edges}
    actual = set()
    for (host, _user), lpm in world.lpms.items():
        for peer in lpm.authenticated_siblings():
            actual.add(frozenset((host, peer)))
    assert actual == expected, "overlay %s != expected %s" % (actual,
                                                              expected)
    # Warm-up: one full snapshot spins up every handler on the paths.
    origin.snapshot()
    return world, origin


def overlay_edges(world) -> List[tuple]:
    """The current authenticated sibling edges, for rendering."""
    edges = set()
    for (host, _user), lpm in world.lpms.items():
        if not lpm.alive:
            continue
        for peer in lpm.authenticated_siblings():
            edges.add(tuple(sorted((host, peer))))
    return sorted(edges)
