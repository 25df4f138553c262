"""Tests for the discrete-event simulation core."""

import pytest

from repro.errors import SimulationError
from repro.netsim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now_ms == 0.0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "a")
    sim.run_until(5.0)
    assert fired == []
    sim.run_until(10.0)
    assert fired == ["a"]
    assert sim.now_ms == 10.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, 3)
    sim.schedule(10.0, fired.append, 1)
    sim.schedule(20.0, fired.append, 2)
    sim.run_until_idle()
    assert fired == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(20):
        sim.schedule(5.0, fired.append, i)
    sim.run_until_idle()
    assert fired == list(range(20))


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, fired.append, "x")
    sim.cancel(event)
    sim.run_until_idle()
    assert fired == []
    assert len(sim.queue) == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.cancel(None)
    assert len(sim.queue) == 0


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(5.0, lambda: fired.append("second"))

    sim.schedule(10.0, first)
    sim.run_until_idle()
    assert fired == ["first", "second"]
    assert sim.now_ms == 15.0


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run_until(100.0)
    assert sim.now_ms == 100.0


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_until(50.0)
    sim.run_for(25.0)
    assert sim.now_ms == 75.0


def test_run_until_true_stops_at_predicate():
    sim = Simulator()
    state = {"n": 0}

    def bump():
        state["n"] += 1
        sim.schedule(10.0, bump)

    sim.schedule(10.0, bump)
    assert sim.run_until_true(lambda: state["n"] >= 3, timeout_ms=1000.0)
    assert state["n"] == 3
    assert sim.now_ms == 30.0


def test_run_until_true_times_out():
    sim = Simulator(start_ms=50.0)
    fired = []
    sim.schedule(10_000.0, fired.append, "late")
    assert not sim.run_until_true(lambda: False, timeout_ms=100.0)
    # The wait ends on its deadline, and the later event stays queued.
    assert sim.now_ms == 150.0
    assert fired == []
    sim.run_until_idle()
    assert fired == ["late"]
    assert sim.now_ms == 10_050.0


def test_run_until_true_times_out_on_empty_queue():
    sim = Simulator(start_ms=50.0)
    assert not sim.run_until_true(lambda: False, timeout_ms=100.0)
    assert sim.now_ms == 150.0


def test_run_until_true_immediate():
    sim = Simulator()
    assert sim.run_until_true(lambda: True, timeout_ms=0.0)


def test_determinism_with_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []
        for _ in range(50):
            sim.schedule(sim.rng.random() * 10.0 + 1.0, values.append,
                         sim.rng.random())
        sim.run_until_idle()
        return values

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_runaway_loop_detection():
    sim = Simulator()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until(1.0, max_events=1000)


def test_events_run_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert sim.events_run == 5
