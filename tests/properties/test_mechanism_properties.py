"""Property-based tests for broadcast dedup, routing, load averaging,
and the calibrated latency model."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.broadcast import BroadcastEngine
from repro.core.routing import RouteCache
from repro.ids import BroadcastId, GlobalPid
from repro.latency import HostClass, kernel_message_delay_ms, load_factor
from repro.unixsim.loadavg import LoadAverage


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Broadcast dedup
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=0, max_value=5),
                          st.floats(min_value=0, max_value=100)),
                min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_within_window_each_stamp_accepted_at_most_once(arrivals):
    clock = FakeClock()
    engine = BroadcastEngine("me", 1_000_000.0, clock, lambda: "s")
    accepted = set()
    for origin, seq, t in arrivals:
        clock.now = max(clock.now, t)
        stamp = BroadcastId.make(origin, 0.0, seq, "s")
        if engine.should_accept(stamp):
            assert stamp.key() not in accepted
            accepted.add(stamp.key())


@given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_signature_verifies_only_with_signing_secret(secret, other):
    stamp = BroadcastId.make("h", 1.0, 1, secret)
    assert stamp.verify(secret)
    if other != secret:
        assert not stamp.verify(other)


# ----------------------------------------------------------------------
# Route cache
# ----------------------------------------------------------------------

paths = st.lists(st.sampled_from(["h%d" % i for i in range(6)]),
                 min_size=2, max_size=5, unique=True)


@given(st.lists(paths, max_size=20))
@settings(max_examples=200, deadline=None)
def test_route_cache_invariants(learned_paths):
    cache = RouteCache("h0")
    for path in learned_paths:
        cache.learn(list(path))
    for dest in cache.destinations():
        route = cache.route_to(dest)
        assert route[0] == "h0"
        assert route[-1] == dest
        assert dest != "h0"
        # No repeated hops in a stored route.
        assert len(route) == len(set(route))


@given(st.lists(paths, max_size=20), st.sampled_from(
    ["h%d" % i for i in range(6)]))
@settings(max_examples=200, deadline=None)
def test_invalidate_removes_every_route_via_peer(learned_paths, broken):
    cache = RouteCache("h0")
    for path in learned_paths:
        cache.learn(list(path))
    cache.invalidate_via(broken)
    for dest in cache.destinations():
        assert broken not in cache.route_to(dest)[1:]


# ----------------------------------------------------------------------
# Load average
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=10_000.0),
                          st.integers(min_value=0, max_value=8)),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_load_average_bounded_by_extremes(steps):
    clock = FakeClock()
    runnable = [0]
    loadavg = LoadAverage(clock, lambda: runnable[0])
    max_n = 0
    for dt, n in steps:
        clock.now += dt
        runnable[0] = n
        loadavg.note_change()
        max_n = max(max_n, n)
        value = loadavg.value()
        assert -1e-9 <= value <= max_n + 1e-9
        assert not math.isnan(value)


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=1.0, max_value=1_000_000.0))
@settings(max_examples=100, deadline=None)
def test_load_average_converges_to_constant_count(n, duration):
    clock = FakeClock()
    loadavg = LoadAverage(clock, lambda: n, tau_ms=1_000.0)
    clock.now = duration
    value = loadavg.value()
    expected = n * (1 - math.exp(-duration / 1_000.0))
    assert abs(value - expected) < 1e-6


# ----------------------------------------------------------------------
# Latency model
# ----------------------------------------------------------------------

@given(st.sampled_from(list(HostClass)),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_kernel_delay_monotone_in_load(host_class, la1, la2):
    lo, hi = sorted((la1, la2))
    assert kernel_message_delay_ms(host_class, lo) <= \
        kernel_message_delay_ms(host_class, hi) + 1e-9


@given(st.sampled_from(list(HostClass)),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=1, max_value=4096))
@settings(max_examples=200, deadline=None)
def test_kernel_delay_positive_and_size_monotone(host_class, la, size):
    base = kernel_message_delay_ms(host_class, la, size_bytes=size)
    bigger = kernel_message_delay_ms(host_class, la, size_bytes=size + 64)
    assert base > 0
    assert bigger >= base


@given(st.sampled_from(list(HostClass)),
       st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_load_factor_at_least_one(host_class, la):
    assert load_factor(host_class, la) >= 1.0 - 1e-9


# ----------------------------------------------------------------------
# GlobalPid
# ----------------------------------------------------------------------

@given(st.text(alphabet=st.characters(blacklist_characters="<>",
                                      blacklist_categories=("Cs",)),
               min_size=1, max_size=20),
       st.integers(min_value=0, max_value=30_000))
@settings(max_examples=200, deadline=None)
def test_global_pid_parse_roundtrip(host, pid):
    assume(host == host.strip())
    gpid = GlobalPid(host, pid)
    assert GlobalPid.parse(str(gpid)) == gpid
