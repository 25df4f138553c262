"""Tests for the trace recorder and granularity control."""

import pytest

from repro.ids import GlobalPid
from repro.tracing import (Granularity, TraceEvent, TraceEventType,
                           TraceRecorder, render_timeline)
from repro.tracing.events import admitted


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_record_and_select():
    clock = Clock()
    recorder = TraceRecorder(clock)
    recorder.record(TraceEventType.FORK, host="a",
                    gpid=GlobalPid("a", 5), parent=1)
    clock.now = 10.0
    recorder.record(TraceEventType.EXIT, host="a", gpid=GlobalPid("a", 5))
    recorder.record(TraceEventType.EXIT, host="b", gpid=GlobalPid("b", 9))
    assert len(recorder) == 3
    assert recorder.count(TraceEventType.EXIT) == 2
    assert len(recorder.select(host="a")) == 2
    assert len(recorder.select(gpid=GlobalPid("a", 5))) == 2
    assert len(recorder.select(TraceEventType.EXIT, host="b")) == 1


def test_time_window_select():
    clock = Clock()
    recorder = TraceRecorder(clock)
    for t in (0.0, 10.0, 20.0, 30.0):
        clock.now = t
        recorder.record(TraceEventType.SIGNAL, host="a")
    assert len(recorder.select(since_ms=10.0, until_ms=20.0)) == 2


def test_granularity_off_records_nothing():
    recorder = TraceRecorder(Clock(), granularity=Granularity.OFF)
    recorder.record(TraceEventType.EXIT, host="a")
    assert len(recorder) == 0
    assert recorder.dropped == 1


def test_granularity_coarse_drops_communication_events():
    recorder = TraceRecorder(Clock(), granularity=Granularity.COARSE)
    recorder.record(TraceEventType.EXIT, host="a")        # lifecycle
    recorder.record(TraceEventType.KERNEL_MESSAGE, host="a")  # fine only
    recorder.record(TraceEventType.SIGNAL, host="a")      # medium
    assert recorder.count(TraceEventType.EXIT) == 1
    assert recorder.count(TraceEventType.KERNEL_MESSAGE) == 0
    assert recorder.count(TraceEventType.SIGNAL) == 0


def test_granularity_medium_admits_control_events():
    recorder = TraceRecorder(Clock(), granularity=Granularity.MEDIUM)
    recorder.record(TraceEventType.SIGNAL, host="a")
    recorder.record(TraceEventType.BROADCAST_SENT, host="a")
    assert recorder.count(TraceEventType.SIGNAL) == 1
    assert recorder.count(TraceEventType.BROADCAST_SENT) == 0


def test_granularity_ordering_is_monotone():
    # Every event admitted at a coarser level is admitted at finer ones.
    levels = [Granularity.OFF, Granularity.COARSE, Granularity.MEDIUM,
              Granularity.FINE]
    for event_type in TraceEventType:
        admitted_at = [admitted(event_type, level) for level in levels]
        # once admitted, stays admitted
        for earlier, later in zip(admitted_at, admitted_at[1:]):
            assert later or not earlier


def test_set_granularity_changes_future_recording():
    recorder = TraceRecorder(Clock(), granularity=Granularity.FINE)
    recorder.record(TraceEventType.KERNEL_MESSAGE, host="a")
    recorder.set_granularity(Granularity.COARSE)
    recorder.record(TraceEventType.KERNEL_MESSAGE, host="a")
    assert recorder.count(TraceEventType.KERNEL_MESSAGE) == 1


def test_capacity_ring():
    recorder = TraceRecorder(Clock(), capacity=3)
    for i in range(5):
        recorder.record(TraceEventType.EXIT, host="h%d" % i)
    assert len(recorder) == 3
    assert recorder.events[0].host == "h2"


def test_subscribers_receive_admitted_events_only():
    recorder = TraceRecorder(Clock(), granularity=Granularity.COARSE)
    seen = []
    recorder.subscribe(seen.append)
    recorder.record(TraceEventType.EXIT, host="a")
    recorder.record(TraceEventType.KERNEL_MESSAGE, host="a")
    assert len(seen) == 1
    recorder.unsubscribe(seen.append)
    recorder.record(TraceEventType.EXIT, host="a")
    assert len(seen) == 1


def test_clear():
    recorder = TraceRecorder(Clock())
    recorder.record(TraceEventType.EXIT, host="a")
    recorder.clear()
    assert len(recorder) == 0


@pytest.mark.parametrize("granularity", list(Granularity))
def test_each_granularity_keeps_exactly_the_admitted_classes(granularity):
    recorder = TraceRecorder(Clock(), granularity=granularity)
    for event_type in TraceEventType:
        recorder.record(event_type, host="a")
    kept = [event.event_type for event in recorder.events]
    expected = [t for t in TraceEventType if admitted(t, granularity)]
    assert kept == expected
    assert recorder.dropped == len(TraceEventType) - len(expected)


def test_subscriber_may_unsubscribe_itself_mid_callback():
    recorder = TraceRecorder(Clock())
    once, every = [], []

    def one_shot(event):
        once.append(event)
        recorder.unsubscribe(one_shot)

    recorder.subscribe(one_shot)
    recorder.subscribe(every.append)
    first = recorder.record(TraceEventType.EXIT, host="a")
    second = recorder.record(TraceEventType.EXIT, host="b")
    assert once == [first]
    assert every == [first, second]
    recorder.unsubscribe(one_shot)  # already gone: a no-op


def test_trace_event_fields_defaults_and_equality():
    event = TraceEvent(1.5, TraceEventType.FORK, "a")
    assert (event.user, event.gpid, event.details) == ("", None, {})
    assert TraceEvent(1.5, TraceEventType.FORK, "a").details \
        is not event.details
    same = TraceEvent(time_ms=1.5, event_type=TraceEventType.FORK,
                      host="a", user="", gpid=None, details={})
    assert event == same and not event != same
    gpid = GlobalPid("a", 5)
    full = TraceEvent(2.0, TraceEventType.EXIT, "a", "lfc", gpid, {"n": 1})
    for other in (TraceEvent(2.5, TraceEventType.EXIT, "a", "lfc", gpid,
                             {"n": 1}),
                  TraceEvent(2.0, TraceEventType.FORK, "a", "lfc", gpid,
                             {"n": 1}),
                  TraceEvent(2.0, TraceEventType.EXIT, "b", "lfc", gpid,
                             {"n": 1}),
                  TraceEvent(2.0, TraceEventType.EXIT, "a", "", gpid,
                             {"n": 1}),
                  TraceEvent(2.0, TraceEventType.EXIT, "a", "lfc", None,
                             {"n": 1}),
                  TraceEvent(2.0, TraceEventType.EXIT, "a", "lfc", gpid,
                             {"n": 2})):
        assert full != other
    assert event != (1.5, TraceEventType.FORK, "a", "", None, {})
    assert repr(full) == (
        "TraceEvent(time_ms=2.0, event_type=%r, host='a', user='lfc', "
        "gpid=%r, details={'n': 1})" % (TraceEventType.EXIT, gpid))
    with pytest.raises(TypeError):
        hash(event)


def test_recorded_event_carries_clock_and_details():
    clock = Clock()
    clock.now = 7.25
    recorder = TraceRecorder(clock)
    event = recorder.record(TraceEventType.SIGNAL, host="a", user="lfc",
                            gpid=GlobalPid("a", 3), signal="STOP")
    assert event == TraceEvent(7.25, TraceEventType.SIGNAL, "a", "lfc",
                               GlobalPid("a", 3), {"signal": "STOP"})


def test_capacity_set_after_construction_keeps_the_newest():
    recorder = TraceRecorder(Clock())
    for i in range(6):
        recorder.record(TraceEventType.EXIT, host="h%d" % i)
    recorder.capacity = 4
    assert recorder.capacity == 4
    assert [event.host for event in recorder.events] == \
        ["h2", "h3", "h4", "h5"]
    for i in range(6, 9):
        recorder.record(TraceEventType.EXIT, host="h%d" % i)
    assert len(recorder) == 4
    assert (recorder.events[0].host, recorder.events[-1].host) == \
        ("h5", "h8")
    assert recorder.count(TraceEventType.EXIT) == 4
    assert recorder.dropped == 0  # eviction is not filtering
    assert "h8" in render_timeline(recorder.events, limit=2)
    recorder.capacity = None
    for i in range(9, 12):
        recorder.record(TraceEventType.EXIT, host="h%d" % i)
    assert len(recorder) == 7
