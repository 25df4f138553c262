"""Tests for hosts and the world container (crash/reboot, accounts)."""

import pytest

from repro.bench import raise_load_to_band
from repro.errors import NoSuchHostError
from repro.latency import load_factor
from repro.netsim import HostClass
from repro.unixsim import SpinnerProgram, World


def test_world_builds_hosts_and_links(world):
    assert set(world.hosts) == {"alpha", "beta", "gamma"}
    assert world.network.reachable("alpha", "gamma")
    with pytest.raises(NoSuchHostError):
        world.host("delta")


def test_accounts_consistent_across_hosts(world):
    for name in ("alpha", "beta", "gamma"):
        host = world.host(name)
        assert host.uid_of("lfc") == 1001
    assert world.host("alpha").users.consistent_with(
        world.host("beta").users, "lfc")


def test_recovery_file_written_everywhere(world):
    world.write_recovery_file("lfc", ["alpha", "beta"])
    for name in ("alpha", "beta", "gamma"):
        assert world.host(name).fs.read_recovery_file("lfc") == [
            "alpha", "beta"]


def test_cpu_cost_scales_with_load(world, alpha):
    light = alpha.cpu_cost(100.0)
    raise_load_to_band(world, alpha, (3.0, 4.0))
    heavy = alpha.cpu_cost(100.0)
    assert heavy > light
    assert light == pytest.approx(100.0)


def test_cpu_cost_scales_with_host_class(world):
    # At one load average, the cost follows the host's own class.
    gamma = world.host("gamma")  # SUN II
    raise_load_to_band(world, gamma, (3.0, 4.0))
    la = gamma.load_average()
    assert gamma.cpu_cost(100.0) == pytest.approx(
        100.0 * load_factor(HostClass.SUN_2, la))
    assert gamma.cpu_cost(100.0) > 100.0 * load_factor(HostClass.VAX_780, la)


def test_crash_kills_processes_and_network(world, alpha):
    proc = alpha.spawn_user_process("lfc", "spin",
                                    program=SpinnerProgram(None))
    alpha.crash()
    assert not alpha.up
    assert not proc.alive
    assert not world.network.reachable("beta", "alpha")
    assert alpha.crash_count == 1


def test_crash_is_idempotent(world, alpha):
    alpha.crash()
    alpha.crash()
    assert alpha.crash_count == 1


def test_disk_survives_crash(world, alpha):
    alpha.fs.write_recovery_file("lfc", ["beta"])
    alpha.crash()
    alpha.reboot()
    assert alpha.fs.read_recovery_file("lfc") == ["beta"]


def test_reboot_gives_fresh_kernel(world, alpha):
    old_kernel = alpha.kernel
    proc = alpha.spawn_user_process("lfc", "spin")
    alpha.crash()
    alpha.reboot()
    assert alpha.up
    assert alpha.kernel is not old_kernel
    assert alpha.kernel.procs.find(proc.pid) is not proc
    assert world.network.reachable("beta", "alpha")
    # inetd is back.
    assert "inetd" in alpha.node.services


def test_reboot_when_up_is_noop(world, alpha):
    kernel = alpha.kernel
    alpha.reboot()
    assert alpha.kernel is kernel


def test_load_average_zero_when_down(world, alpha):
    alpha.spawn_user_process("lfc", "spin", program=SpinnerProgram(None))
    world.run_for(600_000.0)
    alpha.crash()
    assert alpha.load_average() == 0.0


def test_world_determinism():
    def build_and_run(seed):
        w = World(seed=seed)
        w.add_host("a", HostClass.VAX_780)
        w.add_host("b", HostClass.SUN_2)
        w.ethernet()
        w.add_user("u", 100)
        h = w.host("a")
        for i in range(5):
            h.spawn_user_process("u", "job%d" % i,
                                 program=SpinnerProgram(1000.0 * (i + 1)))
        w.run_for(30_000.0)
        return [(e.time_ms, e.event_type.value)
                for e in w.recorder.events], h.load_average()

    assert build_and_run(5) == build_and_run(5)
