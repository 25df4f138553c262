"""An amortised-constant-time expiring set.

The broadcast dedup seen-set (section 4's "scheme for not retransmitting
old broadcast requests") retains stamps for a fixed window of simulated
time.  A naive implementation rescans the whole set on every purge —
O(n) per lookup, quadratic over a flood.  :class:`ExpiryMap` keeps a
FIFO of ``(expiry, key)`` pairs alongside a key -> expiry dict; because
every entry is inserted with the same constant window at non-decreasing
simulated times, the FIFO is ordered by expiry and purging pops only
the entries that actually expired — amortised O(1) per operation.

Semantics match the naive scan exactly: an entry whose expiry is
*strictly less than* now is forgotten; an entry expiring exactly at now
is still live (the A2 window-boundary behaviour the ablation tests pin).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Tuple

from ..perf import PERF


class ExpiryMap:
    """Set-with-TTL whose purge cost is amortised O(1).

    Every ``add`` appends one FIFO record, so a refreshed key may have
    several records queued; only the dict is authoritative.  A popped
    record whose key now carries a later expiry is simply discarded —
    the record matching the live expiry is still queued behind it.  The
    FIFO stays expiry-ordered because the window is constant and the
    clock is monotonic, which is what makes the purge complete: after
    :meth:`purge` returns, *no* expired entry remains in the dict.
    """

    __slots__ = ("window_ms", "_now_fn", "_entries", "_fifo")

    def __init__(self, window_ms: float, now_fn) -> None:
        self.window_ms = window_ms
        self._now_fn = now_fn
        self._entries: Dict[Hashable, float] = {}
        self._fifo: Deque[Tuple[float, Hashable]] = deque()

    def add(self, key: Hashable) -> None:
        """Insert ``key`` (or refresh it) with a fresh window."""
        expiry = self._now_fn() + self.window_ms
        self._fifo.append((expiry, key))
        self._entries[key] = expiry

    def __contains__(self, key: Hashable) -> bool:
        self.purge()
        return key in self._entries

    def __len__(self) -> int:
        self.purge()
        return len(self._entries)

    def purge(self) -> int:
        """Drop every entry whose expiry is strictly in the past.

        Returns the number of entries dropped.  Only expired FIFO
        records are touched, so total purge work over a run is bounded
        by total insertions.
        """
        now = self._now_fn()
        dropped = 0
        fifo = self._fifo
        entries = self._entries
        while fifo and fifo[0][0] < now:
            PERF.dedup_entries_scanned += 1
            _, key = fifo.popleft()
            expiry = entries.get(key)
            # A missing or later-expiring entry means this record was
            # superseded by a refresh; the live record is behind us.
            if expiry is not None and expiry < now:
                del entries[key]
                dropped += 1
        PERF.dedup_entries_expired += dropped
        return dropped

    def __repr__(self) -> str:
        return "ExpiryMap(window_ms=%r, live=%d)" % (
            self.window_ms, len(self._entries))
