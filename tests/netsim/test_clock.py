"""Tests for the simulated clock (netsim/clock.py).

The clock's one invariant — time never moves backwards — is what every
``run_until`` / ``run_until_true`` deadline advance leans on, so the
failure mode gets its own coverage.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.clock import SimClock


def test_starts_at_zero_by_default():
    assert SimClock().now_ms == 0.0


def test_starts_at_given_instant():
    assert SimClock(125.5).now_ms == 125.5


def test_advance_moves_forward():
    clock = SimClock()
    clock.advance_to(10.0)
    assert clock.now_ms == 10.0
    clock.advance_to(10.5)
    assert clock.now_ms == 10.5


def test_advance_to_current_instant_is_a_noop():
    clock = SimClock(7.0)
    clock.advance_to(7.0)
    assert clock.now_ms == 7.0


def test_moving_backwards_is_a_bug():
    clock = SimClock(100.0)
    with pytest.raises(SimulationError, match="backwards"):
        clock.advance_to(99.999)
    # The failed advance must not have moved the clock.
    assert clock.now_ms == 100.0


def test_integer_times_are_coerced_to_float():
    clock = SimClock(5)
    assert isinstance(clock.now_ms, float)
    clock.advance_to(6)
    assert isinstance(clock.now_ms, float)


def test_repr_shows_current_time():
    assert "123.000" in repr(SimClock(123))
