"""The network: nodes, links, routing, partitions, and failure injection.

A :class:`NetworkNode` is the network-facing face of a simulated host: a
name, a CPU class, an up/down flag, and a registry of listening services
(the equivalent of well-known ports; ``inetd`` registers itself here).

Packets are routed over the shortest usable path (breadth-first by hop
count; the paper notes "no attention is currently devoted to finding
minimum hop routes" for the *overlay*, but the IP substrate under it did
route).  Partitions mark crossing links unusable; crashes mark the node
down.  Open stream connections are re-checked after every topology change
and broken ones notify their endpoints after a detection delay, the way a
TCP keepalive or failed send would.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..errors import NoSuchHostError, SimulationError, UnreachableHostError
from ..latency import HostClass
from .link import Link
from .simulator import Simulator


class NetworkNode:
    """Network attachment point of one host.

    The service registry models the well-known ports the paper's
    daemons listen on (section 3: ``inetd`` accepts the LPM-creation
    request and hands it to the ``pmd``); ``up`` is the crash-failure
    flag of section 5's recovery discussion.
    """

    def __init__(self, name: str, host_class: HostClass) -> None:
        self.name = name
        self.host_class = host_class
        self.up = True
        #: service name -> acceptor(server_endpoint, payload) callable.
        self.services: Dict[str, Callable] = {}
        #: callable returning the host's current load average; installed
        #: by the unixsim host so the network can expose it to cost hooks.
        self.load_fn: Callable[[], float] = lambda: 0.0

    def listen(self, service: str, acceptor: Callable) -> None:
        """Register an acceptor for a named service."""
        self.services[service] = acceptor

    def unlisten(self, service: str) -> None:
        """Remove a service registration; unknown names are ignored."""
        self.services.pop(service, None)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return "NetworkNode(%s, %s, %s)" % (self.name,
                                            self.host_class.value, state)


class NetworkStats:
    """Counters used by the transport ablations (the paper's section 3
    circuits-vs-datagrams trade-off, ablation A1).

    ``stream_deliveries_suppressed`` counts segments whose delivery
    event ran but handed nothing over because the endpoint closed or
    the receiving host went down while they were in flight.
    """

    def __init__(self) -> None:
        self.connections_opened = 0
        self.connections_broken = 0
        self.stream_messages = 0
        self.stream_bytes = 0
        self.stream_deliveries_suppressed = 0
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagram_bytes = 0


class Network:
    """Hosts, links, and everything in flight between them."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, NetworkNode] = {}
        self.links: List[Link] = []
        #: Adjacency index: host name -> the links touching it.  BFS
        #: and ``link_between`` walk this instead of scanning every
        #: link in the network (``find_path`` dominated single-thread
        #: profiles at a few hundred hosts).
        self._adjacency: Dict[str, List[Link]] = {}
        #: ``(src, dst) -> (path, links)-or-None`` memo for
        #: :meth:`find_path` and :meth:`transit_delay_ms`, flushed on
        #: every topology change.  ``path`` is exactly what BFS computed
        #: for the same topology and ``links`` its hops in path order as
        #: :meth:`link_between` finds them, so caching cannot change
        #: simulation outcomes.
        self._path_cache: Dict[tuple, Optional[tuple]] = {}
        self.stats = NetworkStats()
        #: open stream connections, maintained by stream.py.
        self._connections: List = []
        #: callbacks run after every topology change (crash, heal, ...).
        self._topology_listeners: List[Callable[[], None]] = []
        #: Circuit id counter; per-network, so ids restart with every
        #: world built in the same process.
        self._next_conn_id = 0

    def next_conn_id(self) -> int:
        """The next circuit id."""
        self._next_conn_id += 1
        return self._next_conn_id

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_node(self, name: str,
                 host_class: HostClass = HostClass.VAX_780) -> NetworkNode:
        """Attach a host to the network (host classes are the paper's
        measured machines, Table 1); names must be unique."""
        if name in self.nodes:
            raise SimulationError("duplicate host name %r" % (name,))
        node = NetworkNode(name, host_class)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> NetworkNode:
        """Look a host up by name, raising :class:`NoSuchHostError`."""
        try:
            return self.nodes[name]
        except KeyError:
            raise NoSuchHostError(name) from None

    def add_link(self, a: str, b: str, latency_ms: float = 5.0,
                 bandwidth_bytes_per_ms: float = 1250.0) -> Link:
        """Join two distinct hosts with an undirected link (section 2's
        "internetwork of computers" generalisation of the one-Ethernet
        testbed)."""
        self.node(a)
        self.node(b)
        if a == b:
            raise SimulationError("cannot link %r to itself" % (a,))
        link = Link(a, b, latency_ms=latency_ms,
                    bandwidth_bytes_per_ms=bandwidth_bytes_per_ms)
        self.links.append(link)
        self._adjacency.setdefault(a, []).append(link)
        self._adjacency.setdefault(b, []).append(link)
        self._path_cache.clear()
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The direct link joining ``a`` and ``b``, or None."""
        wanted = frozenset((a, b))
        for link in self._adjacency.get(a, ()):
            if link.endpoints() == wanted:
                return link
        return None

    def ethernet(self, names: Iterable[str], latency_ms: float = 5.0) -> None:
        """Join hosts with a full mesh of links, approximating one shared
        Ethernet segment (the paper's testbed)."""
        names = list(names)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.link_between(a, b) is None:
                    self.add_link(a, b, latency_ms=latency_ms)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _usable_neighbors(self, name: str) -> List[str]:
        result = []
        for link in self._adjacency.get(name, ()):
            if link.usable:
                other = link.other(name)
                if self.nodes[other].up:
                    result.append(other)
        return result

    def find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """Shortest usable path as a list of host names, or None.

        Memoised per ``(src, dst)`` until the next topology change;
        the cached value is exactly the BFS result for the current
        topology, and callers get a fresh copy each time.
        """
        route = self._route(src, dst)
        return None if route is None else list(route[0])

    def _route(self, src: str, dst: str) -> Optional[tuple]:
        """The memoised ``(path, links)`` from ``src`` to ``dst``, or
        None when either end is down or no usable path exists."""
        nodes = self.nodes
        if src not in nodes or dst not in nodes:
            raise NoSuchHostError(src if src not in nodes else dst)
        if not nodes[src].up or not nodes[dst].up:
            return None
        key = (src, dst)
        try:
            return self._path_cache[key]
        except KeyError:
            pass
        if src == dst:
            route = ([src], ())
        else:
            path = self._bfs_path(src, dst)
            route = None if path is None else (path, tuple(
                self.link_between(a, b) for a, b in zip(path, path[1:])))
        self._path_cache[key] = route
        return route

    def _bfs_path(self, src: str, dst: str) -> Optional[List[str]]:
        seen: Set[str] = {src}
        frontier = deque([[src]])
        while frontier:
            path = frontier.popleft()
            for neighbor in self._usable_neighbors(path[-1]):
                if neighbor in seen:
                    continue
                extended = path + [neighbor]
                if neighbor == dst:
                    return extended
                seen.add(neighbor)
                frontier.append(extended)
        return None

    def reachable(self, src: str, dst: str) -> bool:
        """True when some usable path joins two up hosts — the
        connectivity predicate behind circuit break detection (§5)."""
        return self.find_path(src, dst) is not None

    def transit_delay_ms(self, src: str, dst: str, nbytes: int) -> float:
        """Delay for one message src -> dst, or raise if unreachable:
        the transfer delays of the memoised path's links, summed in
        path order."""
        route = self._route(src, dst)
        if route is None:
            raise UnreachableHostError("%s -> %s" % (src, dst))
        delay = 0.0
        for link in route[1]:
            if not link.usable:
                raise UnreachableHostError("%s-%s" % (link.a, link.b))
            delay += link.transfer_delay_ms(nbytes)
        return delay

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash_host(self, name: str) -> None:
        """Mark a host down and break connections that relied on it."""
        self.node(name).up = False
        self._topology_changed()

    def revive_host(self, name: str) -> None:
        """Bring a crashed host back (the reboot that lets section 5's
        recovery machinery re-adopt the site)."""
        self.node(name).up = True
        self._topology_changed()

    def set_partition(self, groups: List[Set[str]]) -> None:
        """Cut every link whose endpoints fall in different groups.

        Hosts not named in any group form an implicit final group.
        Overlapping groups are rejected.
        """
        named: Set[str] = set()
        for group in groups:
            overlap = named & group
            if overlap:
                raise SimulationError(
                    "hosts in multiple partition groups: %s" % sorted(overlap))
            named |= group
        remainder = set(self.nodes) - named
        all_groups = [set(g) for g in groups]
        if remainder:
            all_groups.append(remainder)

        def group_of(name: str) -> int:
            for index, group in enumerate(all_groups):
                if name in group:
                    return index
            raise NoSuchHostError(name)

        for link in self.links:
            link.partitioned = group_of(link.a) != group_of(link.b)
        self._topology_changed()

    def heal_partition(self) -> None:
        """Undo :meth:`set_partition`; section 5's partition merge."""
        for link in self.links:
            link.partitioned = False
        self._topology_changed()

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Administratively raise or cut one link."""
        link = self.link_between(a, b)
        if link is None:
            raise NoSuchHostError("no link %s-%s" % (a, b))
        link.up = up
        self._topology_changed()

    def add_topology_listener(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after every topology change (crash,
        revive, partition, link state) — how higher layers notice the
        failures section 5 requires them to survive."""
        self._topology_listeners.append(callback)

    def _topology_changed(self) -> None:
        self._path_cache.clear()
        for conn in list(self._connections):
            conn.recheck()
        for callback in list(self._topology_listeners):
            callback()

    # ------------------------------------------------------------------
    # Connection registry (used by stream.py)
    # ------------------------------------------------------------------

    def register_connection(self, conn) -> None:
        """Track an established circuit for topology re-checks."""
        self._connections.append(conn)
        self.stats.connections_opened += 1

    def unregister_connection(self, conn) -> None:
        """Forget a closed or broken circuit; idempotent."""
        if conn in self._connections:
            self._connections.remove(conn)

    def open_connection_count(self) -> int:
        """Established circuits currently registered (the connection
        state the A1 ablation charges circuits for maintaining)."""
        return len(self._connections)
