"""Regression tests for the amortised expiring map.

The map replaces the broadcast engine's full-scan purge; its boundary
semantics must match the old dict scan exactly (``expiry < now``
forgets, ``expiry == now`` keeps) because the A2 dedup-window ablation's
numbers depend on them.
"""

import random

from repro.core.expiry import ExpiryMap


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_window_boundary_matches_old_scan_semantics():
    clock = _Clock()
    seen = ExpiryMap(100.0, clock)
    seen.add("stamp")
    clock.now = 100.0   # expiry == now: still live, like the old scan
    assert "stamp" in seen
    clock.now = 100.0001  # expiry < now: forgotten
    assert "stamp" not in seen
    assert len(seen) == 0


def test_zero_window_forgets_immediately_after_any_advance():
    # The pathological A2 configuration: window 0 keeps nothing beyond
    # the exact instant of insertion.
    clock = _Clock()
    seen = ExpiryMap(0.0, clock)
    seen.add("stamp")
    assert "stamp" in seen
    clock.now = 0.001
    assert "stamp" not in seen


def test_refresh_extends_lifetime_and_purge_stays_complete():
    clock = _Clock()
    seen = ExpiryMap(100.0, clock)
    seen.add("a")
    clock.now = 60.0
    seen.add("a")              # refresh: now expires at 160
    seen.add("b")
    clock.now = 150.0          # the stale record for "a" has expired
    assert "a" in seen
    assert "b" in seen
    clock.now = 161.0
    assert len(seen) == 0


def test_matches_naive_reference_under_random_workload():
    rng = random.Random(99)
    clock = _Clock()
    window = 50.0
    fast = ExpiryMap(window, clock)
    naive = {}  # key -> expiry, purged by full scan like the old code
    for step in range(2000):
        clock.now += rng.uniform(0.0, 10.0)
        key = rng.randrange(40)
        if rng.random() < 0.6:
            fast.add(key)
            naive[key] = clock.now + window
        else:
            expected = key in {k for k, exp in naive.items()
                               if not exp < clock.now}
            assert (key in fast) == expected
        for stale in [k for k, exp in naive.items() if exp < clock.now]:
            del naive[stale]
        assert len(fast) == len(naive)
