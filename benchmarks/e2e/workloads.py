"""The five workloads.

Each is a closed loop of one client with one operation outstanding — a
PPM tool is a caller that waits for its reply (paper section 4).  They
drive only public surfaces (``RealSession``/``PPMClient`` against a
``repro serve`` fleet, ``World``/``PersonalProcessManager`` for the
simulator) and check every reply.  All inputs come from ``--seed``; the
program under test only ever sees the generated inputs.

README.md says, per workload, which layers it loads and which it
bypasses, and why it is sized as it is.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro import (HostClass, PersonalProcessManager, ReproError, World,
                   sleeper_spec)
from repro.realnet import RealSession

#: What ``op`` may raise for a failed operation (an error reply, a
#: timeout, a lost connection); anything else is a benchmark bug.
OP_FAILURES = (ReproError,)

#: A real process the control verbs can push around and that never
#: exits by itself during a run.
SLEEPER = {"argv": ["/bin/sleep", "3600"]}

#: A tool call that takes this long has failed (the library default of
#: two minutes would let one lost reply eat the whole run).
CALL_TIMEOUT_MS = 10_000.0


class Workload:
    """One set of inputs and the loop body that runs them."""

    name = ""
    #: One line for BENCHMARK.json: why this workload exists.
    why = ""
    #: ``repro serve`` hosts to launch (none: in-process simulator,
    #: which ignores the registry path it is handed).
    hosts: tuple = ("a", "b")
    #: Unmeasured ops before the window (lazy set-up belongs to
    #: ``setup_s``, not to steady state).
    warmup_ops = 200

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def open(self, registry_path: str) -> None:
        """Connect and build the standing population."""

    def op(self, index: int) -> Optional[str]:
        """Run operation ``index`` and check its replies: None when
        they were right, else what was wrong (the op then counts as
        failed and the note goes into the diagnostics)."""
        raise NotImplementedError

    def close(self) -> None:
        """Drop connections (the fleet is torn down by the caller)."""

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer numbers only the workload itself can know."""
        return {}


class _OneToolStream(Workload):
    """User ``u0`` on host ``a`` with one long-lived tool stream."""

    session = None

    def open(self, registry_path: str) -> None:
        self.session = RealSession(registry_path, "u0", "a")
        self.client = self.session.client
        self.client.default_timeout_ms = CALL_TIMEOUT_MS
        self.client.connect(timeout_ms=CALL_TIMEOUT_MS)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class RttSmall(_OneToolStream):
    name = "rtt_small"
    why = ("one ping on a long-lived tool stream: the per-message floor of "
           "client, framing, wire, fabric pump, node and LPM tool service; "
           "localos, pmd and registry idle")

    def op(self, index: int) -> Optional[str]:
        reply = self.client.ping()
        if reply.get("ok") is True and reply.get("host") == "a":
            return None
        return "ping replied %r" % (reply,)


class SnapshotWide(_OneToolStream):
    name = "snapshot_wide"
    why = ("snapshot of 24 real processes on each of two hosts: one sibling "
           "GATHER, /proc scans and a 48-record reply, the large-frame "
           "CPU-bound read path")
    #: An op costs ~9 ms of CPU; 50 of them warm every path there is.
    warmup_ops = 50
    per_host = 24

    def open(self, registry_path: str) -> None:
        super().open(registry_path)
        for host in self.hosts:
            for index in range(self.per_host):
                self.client.create_process("idle%d" % index, host=host,
                                           program=SLEEPER)

    def op(self, index: int) -> Optional[str]:
        forest = self.client.snapshot(prune=False)
        if (len(forest.records) == self.per_host * len(self.hosts)
                and forest.hosts() == set(self.hosts)
                and not forest.missing_hosts):
            return None
        return "snapshot held %d records from %s, missing %s" % (
            len(forest.records), sorted(forest.hosts()),
            sorted(forest.missing_hosts))


class ProcChurn(_OneToolStream):
    name = "proc_churn"
    why = ("create, locate, stop, cont, kill of one real process on the "
           "other host: five calls over the sibling channel, one fork/exec "
           "and three signals (the paper's Table 2 at one hop)")
    warmup_ops = 20

    def op(self, index: int) -> Optional[str]:
        # No snapshot/rstats here: exit records are retained (paper
        # section 2), so an O(records) verb would slow as the run goes.
        gpid = self.client.create_process("churn", host="b",
                                          program=SLEEPER)
        located = self.client.locate(gpid)
        stopped = self.client.stop(gpid)
        self.client.cont(gpid)
        self.client.kill(gpid)
        # A signal is asynchronous: kill(2) wakes the sleeper at once
        # ("running") but it is "stopped" only after it next runs,
        # which on one shared CPU is usually after the reply was read
        # from /proc (81 of 100 replies said "running").  Still
        # "sleeping" would mean the signal was never posted.
        if (gpid.host == "b" and located.get("found") is True
                and stopped.get("state") in ("stopped", "running")):
            return None
        return "locate(%s) replied %r, stop replied %r" % (
            gpid, located, stopped)


class ToolStartup(Workload):
    name = "tool_startup"
    why = ("a fresh tool each op: registry read, inetd/pmd bootstrap, tool "
           "stream, one ping, close, rotating 8 users over 2 hosts; the "
           "connection path the other workloads pay once")
    users = 8

    def open(self, registry_path: str) -> None:
        self.registry_path = registry_path
        #: Every (user, host) pair once per round, in a seeded order.
        #: Warm-up goes round at least once, so creating the 16 LPMs is
        #: set-up and every measured op finds its LPM already there.
        self.order = [("u%d" % user, host) for user in range(self.users)
                      for host in self.hosts]
        self.rng.shuffle(self.order)

    def op(self, index: int) -> Optional[str]:
        user, host = self.order[index % len(self.order)]
        with RealSession(self.registry_path, user, host) as session:
            client = session.client
            client.default_timeout_ms = CALL_TIMEOUT_MS
            client.connect(timeout_ms=CALL_TIMEOUT_MS)  # raises unless ok
            reply = client.ping()
        if reply.get("ok") is True and reply.get("host") == host:
            return None
        return "%s's ping on %s replied %r" % (user, host, reply)


# ----------------------------------------------------------------------
# The simulator workload
# ----------------------------------------------------------------------

GATEWAYS = ("g0", "g1")
LEAVES = tuple("l%d" % index for index in range(6))


def build_world(world_seed: int) -> World:
    """A fresh 8-host world: two meshed gateways, three leaves each."""
    world = World(seed=world_seed)
    for name in GATEWAYS + LEAVES:
        world.add_host(name, HostClass.VAX_780)
    world.ethernet(list(GATEWAYS))
    for index, leaf in enumerate(LEAVES):
        world.network.add_link(leaf, GATEWAYS[index % len(GATEWAYS)],
                               latency_ms=world.cost_model.wire_ms)
    world.add_user("u0", 2000)
    return world


class SimSession(Workload):
    name = "sim_session"
    why = ("one whole simulated session on a fresh 8-host world, no "
           "sockets: world build, event queue, streams, routing, gather, "
           "kernel; the path every tier-1 test pays, none of realnet")
    hosts = ()
    warmup_ops = 20
    waves = 32

    def open(self, registry_path: str) -> None:
        #: Per wave: world seed, where the 12 processes go (two on each
        #: leaf, in a seeded order: every wave starts the same six LPMs,
        #: so the seed moves the order of the work and not its amount),
        #: which four are located and which four are stopped/continued/
        #: killed.
        self.plans = [
            (self.rng.randrange(1 << 30),
             self.rng.sample(LEAVES * 2, 12),
             self.rng.sample(range(12), 4),
             self.rng.sample(range(12), 4))
            for _ in range(self.waves)]
        #: wave -> simulated ms its session took, the first time.
        self.wave_ms: Dict[int, float] = {}

    def op(self, index: int) -> Optional[str]:
        # A fresh world per op keeps the loop stationary; one long-lived
        # world grows (exit records are kept) and slows as it goes.
        wave = index % self.waves
        world_seed, placements, located, controlled = self.plans[wave]
        world = build_world(world_seed)
        problem = self._session(world, placements, located, controlled)
        # The determinism oracle: the same wave takes the same
        # simulated time, to the last bit, whenever it recurs.
        sim_ms = world.fabric.now_ms
        first_ms = self.wave_ms.setdefault(wave, sim_ms)
        if problem is None and first_ms != sim_ms:
            problem = "wave %d took %r simulated ms, then %r" % (
                wave, first_ms, sim_ms)
        return problem

    @staticmethod
    def _session(world: World, placements: List[str], located: List[int],
                 controlled: List[int]) -> Optional[str]:
        ppm = PersonalProcessManager(world, "u0", GATEWAYS[0],
                                     recovery_hosts=[GATEWAYS[0]])
        ppm.start()
        client = ppm.client
        gpids = [ppm.create_process("job%d" % index, host=host,
                                    program=sleeper_spec(None))
                 for index, host in enumerate(placements)]
        lost = [gpids[index] for index in located
                if client.locate(gpids[index]).get("found") is not True]
        for index in controlled:
            client.stop(gpids[index])
            client.cont(gpids[index])
            client.kill(gpids[index])
        forest = ppm.snapshot(prune=False)
        client.rstats()
        ppm.logout()
        if lost or len(forest.records) < len(placements):
            return "locate missed %s; snapshot held %d records" % (
                lost, len(forest.records))
        return None

    def layer_extras(self) -> Dict[str, float]:
        # Mean over the waves run, not over the ops: the ops a window
        # holds depend on the machine's speed, the waves' times do not.
        return {"sim.ms_per_op":
                sum(self.wave_ms.values()) / len(self.wave_ms)}


WORKLOADS = (RttSmall, SnapshotWide, ProcChurn, ToolStartup, SimSession)
