"""Tests for the simulated clock, ``Simulator.now_ms``.

The clock's one invariant — time never moves backwards — is what every
``run_until`` / ``run_until_true`` deadline advance leans on, so the
failure mode gets its own coverage: nothing can be scheduled into the
past, and a deadline already behind the clock leaves it where it is.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim import Simulator


def test_starts_at_zero_by_default():
    assert Simulator().now_ms == 0.0


def test_starts_at_given_instant():
    assert Simulator(start_ms=125.5).now_ms == 125.5


def test_advance_moves_forward():
    sim = Simulator()
    sim.run_until(10.0)
    assert sim.now_ms == 10.0
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.now_ms))
    assert sim.run_until_true(lambda: bool(seen), timeout_ms=1.0)
    assert seen == [10.5] and sim.now_ms == 10.5


def test_advance_to_current_instant_is_a_noop():
    sim = Simulator(start_ms=7.0)
    sim.run_until(7.0)
    assert sim.now_ms == 7.0


def test_moving_backwards_is_a_bug():
    sim = Simulator(start_ms=100.0)
    with pytest.raises(SimulationError, match="past"):
        sim.schedule_at(99.999, lambda: None)
    with pytest.raises(SimulationError, match="past"):
        sim.schedule(-0.001, lambda: None)
    with pytest.raises(SimulationError, match="negative"):
        sim.run_until_true(lambda: False, timeout_ms=-1.0)
    # A deadline behind the clock runs nothing and leaves it in place.
    sim.run_until(99.999)
    assert sim.now_ms == 100.0


def test_integer_times_are_coerced_to_float():
    sim = Simulator(start_ms=5)
    assert isinstance(sim.now_ms, float)
    seen = []
    sim.schedule_at(6, lambda: seen.append(sim.now_ms))
    assert sim.run_until_true(lambda: bool(seen), timeout_ms=1.0)
    assert seen == [6.0] and isinstance(seen[0], float)
    sim.run_until(7)
    assert isinstance(sim.now_ms, float)
