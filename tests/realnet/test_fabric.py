"""The contract of ``AsyncioFabric.run_until_true``: it blocks until the
fabric delivers something, re-checks its predicate, and otherwise
sleeps until its timeout — it does not poll on a timer.

The in-process cases share one loop between a node and its client, as
``test_node.py`` does; the wake-up count runs against a real serve
process so that only the client's side of the stream is counted.
"""

import socket
import time

from repro.perf import PERF


def _timed(fabric, predicate, timeout_ms):
    start = time.monotonic()
    held = fabric.run_until_true(predicate, timeout_ms=timeout_ms)
    return held, (time.monotonic() - start) * 1000.0


def test_true_predicate_returns_without_running_the_loop(fabric):
    ran = []
    fabric.schedule(0.0, ran.append, "timer")
    before = PERF.real_pump_wakeups
    assert fabric.run_until_true(lambda: True, timeout_ms=5_000)
    assert ran == []
    assert PERF.real_pump_wakeups == before


def test_idle_fabric_times_out_at_the_timeout(fabric):
    held, elapsed_ms = _timed(fabric, lambda: False, 50)
    assert held is False
    assert 49.0 <= elapsed_ms < 250.0


def test_false_predicate_is_a_sleep(fabric):
    """``ops/watch.py`` waits between sweeps this way."""
    before = PERF.real_pump_wakeups
    held, elapsed_ms = _timed(fabric, lambda: False, 30)
    assert held is False
    assert 29.0 <= elapsed_ms < 250.0
    # Nothing was delivered, so the only wake-up is the timeout's.
    assert PERF.real_pump_wakeups - before == 1


def test_scheduled_timer_wakes_the_pump_at_the_timer(fabric):
    flag = []
    fabric.schedule(30.0, flag.append, True)
    held, elapsed_ms = _timed(fabric, lambda: bool(flag), 5_000)
    assert held is True
    assert 29.0 <= elapsed_ms < 1_000.0


def test_cancelled_timer_does_not_fire(fabric):
    flag = []
    fabric.cancel(fabric.schedule(10.0, flag.append, True))
    fabric.cancel(None)
    assert fabric.run_until_true(lambda: bool(flag), timeout_ms=40) is False


def test_peer_close_wakes_the_pump(fabric, node):
    server_side, closed = {}, []
    node.listen("quiet", lambda ep, payload: server_side.update(ep=ep))

    def established(endpoint):
        endpoint.on_close = lambda reason, ep: closed.append(reason)

    fabric.connect("tester", "alpha", "quiet", on_established=established)
    assert fabric.run_until_true(lambda: "ep" in server_side,
                                 timeout_ms=5_000)
    server_side["ep"].close()
    held, elapsed_ms = _timed(fabric, lambda: bool(closed), 5_000)
    assert held is True and closed == ["closed"]
    assert elapsed_ms < 1_000.0


def test_refused_dial_wakes_the_pump(fabric):
    # A port nothing listens on: bind one, note it, close it.
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    fabric.registry.publish("ghost", "127.0.0.1", port)
    failures = []
    fabric.connect("tester", "ghost", "echo",
                   on_established=lambda ep: failures.append("bad"),
                   on_failed=failures.append)
    held, elapsed_ms = _timed(fabric, lambda: bool(failures), 5_000)
    assert held is True
    assert "connect refused" in failures[0]
    assert elapsed_ms < 1_000.0


def test_raising_callback_leaves_the_fabric_able_to_pump(fabric):
    errors = []
    fabric.loop.set_exception_handler(
        lambda loop, context: errors.append(context.get("exception")))

    def boom():
        raise ValueError("boom")

    fabric.schedule(0.0, boom)
    assert fabric.run_until_true(lambda: False, timeout_ms=20) is False
    assert [type(error) for error in errors] == [ValueError]
    flag = []
    fabric.schedule(5.0, flag.append, True)
    assert fabric.run_until_true(lambda: bool(flag), timeout_ms=5_000)


def test_pump_is_not_reentrant_and_survives_the_attempt(fabric):
    """A callback that pumps gets an error; the outer pump goes on."""
    outcome = []

    def nested():
        try:
            fabric.run_until_true(lambda: False, timeout_ms=10)
        except RuntimeError as exc:
            outcome.append(str(exc))

    fabric.schedule(0.0, nested)
    assert fabric.run_until_true(lambda: bool(outcome), timeout_ms=5_000)
    assert "re-entrant" in outcome[0]
    flag = []
    fabric.schedule(5.0, flag.append, True)
    assert fabric.run_until_true(lambda: bool(flag), timeout_ms=5_000)


def test_a_ping_costs_one_wakeup_and_no_timer(loopback, monkeypatch):
    """The nap coming back would show here without a stopwatch: 100
    pings on a live tool stream wake the client about 100 times, and
    not one of those wake-ups is a timer running out."""
    from repro.realnet.session import RealSession, launch_hosts

    with launch_hosts(["alpha"], budget_s=60.0) as fleet:
        with RealSession(fleet.registry_path, "lfc", "alpha") as session:
            client = session.client.connect()
            client.ping()
            loop = session.fabric.loop
            call_later, timers_run = loop.call_later, []

            def counting_call_later(delay, callback, *args):
                def run():
                    timers_run.append(delay)
                    callback(*args)
                return call_later(delay, run)

            monkeypatch.setattr(loop, "call_later", counting_call_later)
            before = PERF.real_pump_wakeups
            for _ in range(100):
                assert client.ping()["ok"]
            wakeups = PERF.real_pump_wakeups - before
            monkeypatch.undo()
    assert 100 <= wakeups <= 110
    assert timers_run == []
