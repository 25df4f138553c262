"""Noisy-neighbor isolation on shared circuits.

Circuit sharing multiplexes co-located users over one physical
circuit per host pair; the risk it must not introduce is head-of-line
blocking — one tenant's gather storm inflating another tenant's
latencies.  The test drives a quiet baseline (the victim alone) and a
noisy run (the same victim schedule plus a fleet of aggressors whose
sessions gather across every leaf host) on identical worlds, and
bounds the victim's p99 degradation by an SLO multiple.
"""

import pytest

workloads = pytest.importorskip("benchmarks.workloads")

from repro.perf.histogram import LatencyHistogram  # noqa: E402

#: The victim's noisy-run p99 may be at most this multiple of its
#: quiet-run p99 for each measured operation.  The shared-circuit
#: design keeps lanes independent at the protocol level, but the
#: tenants still share host CPUs, so bounded (not zero) degradation is
#: the contract: a storm of 24 full-fanout gather sessions measures
#: ~3x on the victim's gather p99; head-of-line blocking across lanes
#: would be an order of magnitude.
SLO_MULTIPLE = 5.0

VICTIM_SESSIONS = 6
VICTIM_GAP_MS = 8_000.0
AGGRESSOR_SESSIONS_EACH = 3
HORIZON_MS = 300_000.0


def drive(n_aggressors, seed=13):
    """Run the victim schedule with ``n_aggressors`` tenants alongside.

    Returns ``{op: LatencyHistogram}`` for the victim's operations.
    The victim's own schedule (arrival times, create targets, locate
    pick) is identical in every call; only the aggressor load varies.
    """
    world, names, users, homes = workloads.build_multitenant_world(
        n_users=n_aggressors + 1, n_hosts=6, gateways=2, seed=seed,
        sharing=True)
    leaves = names[2:]
    victim = users[0]
    victim_home = homes[victim]
    done = []

    def finished(session):
        assert not session.failed
        done.append(session)

    victim_hists = {op: LatencyHistogram() for op in workloads.OPS}
    expected = VICTIM_SESSIONS
    for i in range(VICTIM_SESSIONS):
        session = workloads.Session(
            world, victim, victim_home,
            create_targets=[leaves[0]], locate_index=0,
            record=lambda op, ms: victim_hists[op].record(ms),
            on_done=finished)
        world.fabric.schedule(1_000.0 + i * VICTIM_GAP_MS,
                              session.start)

    # Aggressors: every session creates on and gathers across *all*
    # leaves — the storm rides the same shared circuits as the victim.
    for j, user in enumerate(users[1:]):
        home = homes[user]
        for k in range(AGGRESSOR_SESSIONS_EACH):
            session = workloads.Session(
                world, user, home,
                create_targets=list(leaves), locate_index=0,
                record=lambda op, ms: None,
                on_done=finished)
            expected += 1
            world.fabric.schedule(
                500.0 + k * VICTIM_GAP_MS + j * 700.0,
                session.start)

    world.run_for(HORIZON_MS)
    assert len(done) == expected
    return victim_hists


def test_victim_p99_stays_within_slo_multiple():
    quiet = drive(n_aggressors=0)
    noisy = drive(n_aggressors=8)
    for op in ("tool_call", "gather", "session"):
        quiet_p99 = quiet[op].summary()["p99_ms"]
        noisy_p99 = noisy[op].summary()["p99_ms"]
        assert quiet[op].count == noisy[op].count == VICTIM_SESSIONS
        assert noisy_p99 <= SLO_MULTIPLE * quiet_p99, (
            "%s p99 %.1fms exceeds %.1fx quiet baseline %.1fms"
            % (op, noisy_p99, SLO_MULTIPLE, quiet_p99))
