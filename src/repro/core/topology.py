"""The ``sparse`` sibling-graph policy: a bounded-degree overlay.

Section 4 expects "low-connectivity graphs" — the broadcast machinery
pays a graph-covering price precisely so the connection graph can stay
sparse.  The ``full_mesh`` ablation policy goes the other way and opens
O(n²) channels, which is what blocks the overlay from scaling past a
hundred hosts.  This module adds the middle point: a deterministic
ring-plus-chords overlay of degree ≤ k, so the session keeps O(n·k)
channels, stays connected through the ring, and keeps broadcast depth
logarithmic through the chords (the shape MPD's sparse manager ring and
tree-structured launchers use for the same reason).

Two halves live here:

* pure graph arithmetic (:func:`chord_offsets`,
  :func:`sparse_neighbors`) — deterministic, symmetric, and unit-tested
  in isolation;
* :class:`TopologyManager`, the per-LPM driver that accumulates session
  membership from HELLO ``known`` lists and ``TOPO_GOSSIP`` notices,
  and (debounced) opens the channels the computed overlay wants.

Everything is inert unless ``PPMConfig.topology_policy == "sparse"``:
the default ``on_demand`` and the ``full_mesh`` ablation behave
byte-identically to before this module existed.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..errors import ConnectionClosedError
from .messages import Message, MsgKind

#: Debounce for membership-driven rewiring and gossip, in simulated ms.
#: Joins arrive in bursts while a session spreads; the timers are
#: trailing-edge — each further growth pushes the deadline back — so a
#: burst of joins produces one rewire/gossip wave at the settled
#: membership rather than one per intermediate size.  That matters
#: doubly because links are grow-only: chord targets shift as the ring
#: grows, and rewiring at every intermediate size would strand a trail
#: of stale links that nothing ever closes.
REWIRE_DEBOUNCE_MS = 2_000.0


def chord_offsets(n: int, degree: int) -> List[int]:
    """Ring offsets of the degree-bounded chord graph over ``n`` hosts.

    Offset 1 (the ring) is always present, keeping the overlay
    connected; the remaining ``degree // 2 - 1`` offsets are powers of a
    stride ``c`` chosen so the largest chord spans about ``n / c`` — the
    base-``c`` positional system over the ring, which bounds hop
    distance by roughly ``c · degree / 2`` (single digits of hops for
    hundreds of hosts at degree 6).
    """
    if n < 2:
        return []
    half = max(1, degree // 2)
    if n <= degree + 1:
        # Small sessions: the chords would wrap into duplicates; the
        # plain ring (plus its short chords) is already near-complete.
        # Offsets past n // 2 alias the other side of the ring.
        return list(range(1, n // 2 + 1))[:half]
    c = 2
    while c ** half < n:
        c += 1
    offsets = []
    for j in range(half):
        offset = min(c ** j, n // 2)
        if offset not in offsets:
            offsets.append(offset)
    return offsets


def sparse_neighbors(host: str, hosts: Iterable[str],
                     degree: int) -> Set[str]:
    """The neighbor set of ``host`` in the ring-plus-chords overlay.

    ``hosts`` is the full membership (any order; sorted internally so
    every LPM computes the same graph).  The relation is symmetric —
    each offset contributes the hosts at ``±offset`` around the sorted
    ring — so both endpoints of every edge agree it should exist, and
    whoever learns the membership first opens it.
    """
    ring = sorted(set(hosts) | {host})
    n = len(ring)
    if n < 2:
        return set()
    rank = ring.index(host)
    neighbors: Set[str] = set()
    for offset in chord_offsets(n, degree):
        neighbors.add(ring[(rank + offset) % n])
        neighbors.add(ring[(rank - offset) % n])
    neighbors.discard(host)
    return neighbors


class TopologyManager:
    """Membership tracking and overlay wiring for one LPM.

    The LPM injects itself for the clock, transport, and config; the
    manager never touches sockets directly (``ensure_sibling`` and
    ``send_on_link`` belong to the transport layer).  Membership is a
    grow-only set: hosts leave the *overlay* by losing links, not by
    being forgotten, mirroring how the paper's sessions wind down
    through time-to-live rather than explicit leaves.
    """

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.membership: Set[str] = {lpm.name}
        self._rewire_timer = None
        self._gossip_timer = None
        #: Simulated time of the last membership growth, driving the
        #: trailing-edge debounce: a timer that fires while growth is
        #: more recent than ``REWIRE_DEBOUNCE_MS`` re-arms instead of
        #: acting.
        self._last_growth_ms = float("-inf")
        #: Membership size last gossiped, so a pending gossip that
        #: learned nothing new is skipped when the timer fires.
        self._gossiped_size = 0

    @property
    def active(self) -> bool:
        return self.lpm.config.topology_policy == "sparse"

    # ------------------------------------------------------------------
    # Membership intake
    # ------------------------------------------------------------------

    def note_hosts(self, hosts: Iterable[str]) -> None:
        """Fold newly learned hosts into the membership; schedule a
        (debounced) rewire and gossip round when it grew."""
        if not self.active:
            return
        before = len(self.membership)
        self.membership.update(hosts)
        self.membership.update(self.lpm.transport.links)
        self.membership.discard(None)
        if len(self.membership) > before:
            self._last_growth_ms = self.lpm.sim.now_ms
            self._arm(rewire=True, gossip=True)

    def on_gossip(self, message: Message) -> None:
        """A sibling's ``TOPO_GOSSIP {hosts}`` membership notice."""
        self.note_hosts(message.payload.get("hosts", ()))

    def known_hosts(self) -> List[str]:
        """What this LPM advertises in HELLO ``known`` fields: full
        membership under the sparse policy (membership must propagate
        even though the link graph is sparse), the authenticated link
        list otherwise (the historical wire contents, byte-identical)."""
        if self.active:
            self.membership.update(self.lpm.transport.links)
            return sorted(self.membership)
        return self.lpm.transport.authenticated()

    # ------------------------------------------------------------------
    # Debounced reactions
    # ------------------------------------------------------------------

    def _arm(self, rewire: bool = False, gossip: bool = False) -> None:
        lpm = self.lpm
        if rewire and self._rewire_timer is None:
            self._rewire_timer = lpm.sim.schedule(
                REWIRE_DEBOUNCE_MS, self._rewire)
        if gossip and self._gossip_timer is None:
            self._gossip_timer = lpm.sim.schedule(
                REWIRE_DEBOUNCE_MS, self._gossip)

    def _settled(self, rearm) -> bool:
        """Trailing-edge gate: True once membership has been quiet for
        the full debounce window; otherwise calls ``rearm`` (a fresh
        full window — growth is still in flight, precision is moot)."""
        quiet = self.lpm.sim.now_ms - self._last_growth_ms
        if quiet >= REWIRE_DEBOUNCE_MS:
            return True
        rearm()
        return False

    def neighbors(self) -> Set[str]:
        """The overlay neighbors the current membership implies."""
        return sparse_neighbors(self.lpm.name, self.membership,
                                self.lpm.config.sparse_degree)

    def _rewire(self) -> None:
        self._rewire_timer = None
        lpm = self.lpm
        if not self.active or not lpm.is_running():
            return
        if not self._settled(lambda: self._arm(rewire=True)):
            return
        for peer in sorted(self.neighbors()):
            # Deterministic simultaneous-open arbitration: the overlay
            # relation is symmetric and both ends rewire in the same
            # quiet window, so without a tie-break each side opens a
            # link and `accept_sibling` closes the other's — leaving
            # both holding circuits dead at the far end.  The smaller
            # name initiates; the edge still always opens.
            if lpm.name < peer and lpm.transport.link_to(peer) is None:
                lpm.ensure_sibling(peer)

    def _gossip(self) -> None:
        self._gossip_timer = None
        lpm = self.lpm
        if not self.active or not lpm.is_running():
            return
        if not self._settled(lambda: self._arm(gossip=True)):
            return
        if len(self.membership) <= self._gossiped_size:
            return
        self._gossiped_size = len(self.membership)
        hosts = sorted(self.membership)
        for peer in lpm.transport.authenticated():
            link = lpm.transport.link_to(peer)
            if link is None:
                continue
            notice = Message(kind=MsgKind.TOPO_GOSSIP,
                             req_id=lpm.rpc.next_req_id(),
                             origin=lpm.name, user=lpm.user,
                             payload={"hosts": hosts})
            try:
                lpm.transport.send_on_link(link, notice)
            except ConnectionClosedError:
                continue

    def shutdown(self) -> None:
        for timer in (self._rewire_timer, self._gossip_timer):
            if timer is not None:
                self.lpm.sim.cancel(timer)
        self._rewire_timer = self._gossip_timer = None
