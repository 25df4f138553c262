"""Broadcast over the on-demand sibling graph.

"Because our on-demand communication topology is designed to produce
low-connectivity graphs, we have to pay a price for broadcast requests.
The PPM uses a graph covering algorithm.  A scheme for not
retransmitting old broadcast requests has been implemented using a
signed timestamp in which the name of the originating host appears."
(section 4)

The engine stamps outgoing broadcasts with a :class:`BroadcastId`
(signed with the session secret), keeps seen stamps for the configurable
retention window, and floods unseen requests to every sibling except the
arrival link — flooding over a connected graph is the graph-covering
algorithm.  A hop limit guards the pathological window=0 configuration
the A2 ablation explores.
"""

from __future__ import annotations

from typing import Optional

from ..ids import BroadcastId
from ..perf import PERF
from .expiry import ExpiryMap

#: Safety bound: a broadcast never crosses more overlay hops than this.
MAX_BROADCAST_HOPS = 32


class BroadcastEngine:
    """Duplicate suppression and stamping for one LPM."""

    def __init__(self, self_host: str, window_ms: float,
                 now_fn, secret_fn) -> None:
        self.self_host = self_host
        self.window_ms = window_ms
        self._now_fn = now_fn
        #: Callable returning the current session secret (it can change
        #: when the LPM joins an existing session).
        self._secret_fn = secret_fn
        #: Seen stamps, expiry-ordered: purge work is amortised O(1)
        #: per arrival instead of a full rescan (the old quadratic
        #: behaviour under a flood).  Window-boundary semantics are
        #: identical — ``expiry < now`` forgets, ``expiry == now`` keeps.
        self._seen = ExpiryMap(window_ms, now_fn)
        self._next_seq = 0
        self.duplicates_dropped = 0
        self.forwards = 0
        self.rejected_signatures = 0
        self.hop_limited = 0

    def stamp(self) -> BroadcastId:
        """Create a signed stamp for a broadcast we originate, and mark
        it seen so reflections are dropped."""
        self._next_seq += 1
        stamp = BroadcastId.make(self.self_host, self._now_fn(),
                                 self._next_seq, self._secret_fn())
        self._remember(stamp)
        return stamp

    def should_accept(self, stamp: Optional[BroadcastId],
                      hops: int = 0) -> bool:
        """Decide whether an arriving broadcast is fresh.

        Verifies the signature, enforces the hop bound, consults (and
        updates) the seen-set.  Returns False for duplicates within the
        retention window.
        """
        PERF.dedup_checks += 1
        if stamp is None:
            return False
        if not stamp.verify(self._secret_fn()):
            self.rejected_signatures += 1
            return False
        if hops > MAX_BROADCAST_HOPS:
            self.hop_limited += 1
            return False
        if stamp.key() in self._seen:  # purges expired entries first
            self.duplicates_dropped += 1
            return False
        self._remember(stamp)
        return True

    def _remember(self, stamp: BroadcastId) -> None:
        self._seen.add(stamp.key())

    def seen_count(self) -> int:
        return len(self._seen)
