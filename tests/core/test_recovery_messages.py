"""Direct tests for the CCS message handlers and a long soak run."""

import pytest

from repro import PPMClient, PPMConfig, spinner_spec, worker_spec
from repro.core.messages import Message, MsgKind
from repro.core.recovery import RecoveryState
from repro.tracing import Granularity

from .conftest import build_world, lpm_of


def test_ccs_probe_message_answered(world):
    client = PPMClient(world, "lfc", "alpha").connect()
    client.create_process("j", host="beta", program=spinner_spec(None))
    lpm_beta = lpm_of(world, "beta")
    replies = []
    lpm_beta.send_request("alpha", MsgKind.CCS_PROBE, {},
                          replies.append)
    world.run_for(5_000.0)
    assert replies and replies[0] is not None
    assert replies[0].payload["ccs_host"] == "alpha"


def test_ccs_report_notice_updates_coordinator(world):
    client = PPMClient(world, "lfc", "alpha").connect()
    client.create_process("j", host="beta", program=spinner_spec(None))
    lpm_alpha = lpm_of(world, "alpha")
    lpm_beta = lpm_of(world, "beta")
    # alpha announces a coordinator change to beta.
    replies = []
    lpm_alpha.send_request("beta", MsgKind.CCS_REPORT,
                           {"new_ccs": "gamma"}, replies.append)
    world.run_for(5_000.0)
    assert lpm_beta.ccs_host == "gamma"
    assert replies[0].payload["ccs_host"] == "gamma"


def test_ccs_report_makes_receiver_stand_in(world):
    # A plain report addressed to a non-CCS LPM makes it serve.
    client = PPMClient(world, "lfc", "alpha").connect()
    client.create_process("j", host="beta", program=spinner_spec(None))
    lpm_alpha = lpm_of(world, "alpha")
    lpm_beta = lpm_of(world, "beta")
    assert lpm_beta.ccs_host == "alpha"
    replies = []
    lpm_alpha.send_request("beta", MsgKind.CCS_REPORT,
                           {"lost": "gamma", "reporter": "alpha"},
                           replies.append)
    world.run_for(5_000.0)
    assert lpm_beta.recovery.state is RecoveryState.ACTING_CCS


class TestSoak:
    def test_hours_of_churn_stay_bounded(self):
        """A day of simulated churn: processes created and dying,
        snapshots, a crash/reboot cycle — queues, pools, and seen-sets
        must stay bounded and the session responsive."""
        config = PPMConfig(broadcast_dedup_window_ms=30_000.0)
        world = build_world(seed=77, config=config)
        world.recorder.capacity = 5_000  # bounded history
        from repro import PPMError
        client = PPMClient(world, "lfc", "alpha").connect()
        client.create_process("anchor", program=spinner_spec(None))
        failures = 0
        for cycle in range(30):
            for host in ("beta", "gamma"):
                try:
                    client.create_process("burst-%d" % cycle, host=host,
                                          program=worker_spec(60_000.0))
                except PPMError:
                    # Expected while gamma is down (or crashed so
                    # recently the break is not yet detected).
                    failures += 1
            client.snapshot()
            world.run_for(600_000.0)  # 10 simulated minutes
            if cycle == 10:
                world.host("gamma").crash()
            if cycle == 12:
                world.host("gamma").reboot()
        assert failures <= 3  # only the down window fails
        # ~5 simulated hours later: everything bounded and alive.
        lpm = lpm_of(world, "alpha")
        assert lpm.alive
        assert lpm.pool.size() <= config.handler_pool_max + 1
        assert lpm.pool.busy_count() == 0
        assert lpm.broadcast.seen_count() <= 10  # window purges
        assert len(lpm.rpc.pending) == 0
        assert len(world.recorder.events) <= 5_000
        assert len(world.sim.queue) < 200  # no timer leaks
        assert client.ping()["ok"]
        forest = client.snapshot()
        assert any(r.command == "anchor" for r in forest.records.values())
