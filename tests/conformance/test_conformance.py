"""Cross-backend conformance: one scenario, two fabrics.

The netsim run administers simulated processes over simulated links;
the realnet run administers real OS processes over real TCP sockets —
through the *same* ``PPMClient`` and the same protocol stack.  The
assertion is that the journals (ordered tool-stream traffic) and the
normalized final process tables are identical.
"""

from __future__ import annotations

import socket
import sys

import pytest

from repro import HostClass, PPMClient, World, install

from .scenario import HOSTS, run_scenario, run_two_user_scenario


def _real_backend_available() -> bool:
    """Real runs need loopback sockets and subprocess support."""
    if sys.platform.startswith("win"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError:
        return False
    return True


needs_real = pytest.mark.skipif(
    not _real_backend_available(),
    reason="loopback sockets unavailable; realnet cases skipped")


def run_on_netsim():
    world = World(seed=11)
    for name, host_class in zip(HOSTS, (HostClass.VAX_780,
                                        HostClass.VAX_750,
                                        HostClass.SUN_2)):
        world.add_host(name, host_class)
    world.ethernet()
    world.add_user("lfc", 1001)
    install(world)
    return run_scenario(PPMClient(world, "lfc", HOSTS[0]), HOSTS)


def run_on_realnet():
    from repro.realnet.session import RealSession, launch_hosts

    with launch_hosts(HOSTS, budget_s=120.0) as fleet:
        with RealSession(fleet.registry_path, "lfc",
                         HOSTS[0]) as session:
            return run_scenario(session.client, HOSTS)


EXPECTED_JOURNAL = [
    ("connect", True),
    ("tool_ping", True, "alpha"),
    ("tool_session_info", True, "alpha", "lfc"),
    ("tool_create", "local", True),
    ("tool_create", "remote", True),
    ("tool_locate", True, True, "gamma"),
    ("tool_control", "stop", True),
    ("tool_control", "continue", True),
    ("tool_snapshot", True, 2),
    ("tool_control", "kill", True),
    ("tool_control", "kill", True),
    ("close", True),
]

EXPECTED_TABLE = [("p0", "alpha", None), ("p1", "gamma", "p0")]


def test_netsim_runs_the_scenario():
    journal, table = run_on_netsim()
    assert journal == EXPECTED_JOURNAL
    assert table == EXPECTED_TABLE


@needs_real
def test_realnet_runs_the_scenario():
    journal, table = run_on_realnet()
    assert journal == EXPECTED_JOURNAL
    assert table == EXPECTED_TABLE


@needs_real
def test_backends_agree_end_to_end():
    """The two backends produce identical journals and tables — the
    direct cross-backend comparison, independent of the expectation
    constants above."""
    sim_journal, sim_table = run_on_netsim()
    real_journal, real_table = run_on_realnet()
    assert sim_journal == real_journal
    assert sim_table == real_table


# ----------------------------------------------------------------------
# Two co-located users, each over its own private circuits
# ----------------------------------------------------------------------

def run_two_user_on_netsim():
    world = World(seed=11)
    for name, host_class in zip(HOSTS, (HostClass.VAX_780,
                                        HostClass.VAX_750,
                                        HostClass.SUN_2)):
        world.add_host(name, host_class)
    world.ethernet()
    world.add_user("lfc", 1001)
    world.add_user("ramon", 1002)
    install(world)
    return run_two_user_scenario(PPMClient(world, "lfc", HOSTS[0]),
                                 PPMClient(world, "ramon", HOSTS[0]),
                                 HOSTS)


def run_two_user_on_realnet():
    from repro.realnet.session import RealSession, launch_hosts

    with launch_hosts(HOSTS, budget_s=120.0) as fleet:
        with RealSession(fleet.registry_path, "lfc", HOSTS[0]) as a, \
                RealSession(fleet.registry_path, "ramon", HOSTS[0]) as b:
            return run_two_user_scenario(a.client, b.client, HOSTS)


EXPECTED_TWO_USER_JOURNAL = [
    ("connect", "a", True),
    ("connect", "b", True),
    ("tool_ping", "a", True, "alpha"),
    ("tool_ping", "b", True, "alpha"),
    ("tool_create", "a", True),
    ("tool_create", "b", True),
    ("tool_locate", "a", True, True, "gamma"),
    ("tool_locate", "b", True, True, "gamma"),
    ("isolated", True, True),
    ("tool_control", "a", "kill", True),
    ("tool_control", "b", "kill", True),
    ("close", True),
]


def test_netsim_runs_the_two_user_scenario():
    assert run_two_user_on_netsim() == EXPECTED_TWO_USER_JOURNAL


@needs_real
def test_realnet_runs_the_two_user_scenario():
    assert run_two_user_on_realnet() == EXPECTED_TWO_USER_JOURNAL


@needs_real
def test_backends_agree_on_two_users():
    """A two-user session produces identical journals on the simulated
    and the real TCP backend."""
    assert run_two_user_on_netsim() == run_two_user_on_realnet()
