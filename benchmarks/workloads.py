"""Open-loop multi-tenant workload generator: M users x N hosts.

Many users' per-user PPMs on one host fleet: this module drives M
concurrent user sessions over an N-host world through the paper's tool vocabulary —
login -> create (fan-out) -> locate -> tool_call -> gather -> logout —
with **heavy-tailed (lognormal) open-loop arrivals**: sessions start on
a schedule drawn once from a seeded RNG, never waiting for earlier
sessions, exactly how real login waves hit a fleet.

Each operation after login opens its *own* tool stream, the way the
paper's tools really work ("its services must be obtained by one of a
series of tools", section 4) — so every op re-runs the Figure-2
bootstrap and a login wave hammers the pmd authentication path the
incarnation-keyed auth cache exists for.

Per-operation latencies land in one :class:`repro.perf.histogram.
LatencyHistogram` ladder per op; SLOs (p50/p95/p99 per op) come from
those ladders.

Run standalone (prints the SLO table)::

    PYTHONPATH=src python -m benchmarks.workloads [--smoke]
        [--users M] [--hosts N] [--budget-s S]

or as the ``multitenant_50x24`` scenario of ``benchmarks.perf.runner``
(recorded in BENCH_core.json), which also records the steady-state
inter-host link count.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List

from repro import HostClass, World, install, spinner_spec
from repro.core.messages import Message, MsgKind
from repro.perf.histogram import LatencyHistogram
from repro.unixsim.inetd import INETD_SERVICE, PPM_SERVICE

#: The per-operation histogram ladders every run reports.
OPS = ("login", "create", "locate", "tool_call", "gather", "session")


# ----------------------------------------------------------------------
# One user session (fully event-driven)
# ----------------------------------------------------------------------

class Session:
    """One user's session as a callback state machine.

    Never drives the simulation (no ``run_until_true``): every step is
    a fabric callback, so hundreds of sessions interleave open-loop.
    """

    def __init__(self, world, user: str, home: str,
                 create_targets: List[str], locate_index: int,
                 record: Callable[[str, float], None],
                 on_done: Callable[["Session"], None]) -> None:
        self.world = world
        self.fabric = world.fabric
        self.user = user
        self.home = home
        self.create_targets = create_targets
        self.locate_index = locate_index
        self.record = record
        self.on_done = on_done
        self.created: List[tuple] = []
        self.failed = False
        self.finished = False
        self._t0 = 0.0
        self._req = 0
        self._pending: Dict[int, Callable] = {}
        self._endpoint = None

    # -- plumbing ------------------------------------------------------

    def _fail(self, _reason=None) -> None:
        if self.finished:
            return
        self.failed = True
        self._finish()

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self._endpoint is not None and self._endpoint.open:
            self._endpoint.close()
        self._endpoint = None
        self.record("session", self.fabric.now_ms - self._t0)
        self.on_done(self)

    def _connect_tool(self, ready: Callable) -> None:
        """Figure-2 bootstrap plus the tool stream; ``ready(endpoint)``
        when the stream is up (every op dials its own tool)."""
        def bootstrap_replied(payload, bootstrap_endpoint) -> None:
            bootstrap_endpoint.close()
            if not isinstance(payload, dict) or not payload.get("ok"):
                self._fail()
                return

            def established(endpoint) -> None:
                self._endpoint = endpoint
                endpoint.on_message = self._on_message
                endpoint.on_close = self._on_close
                ready(endpoint)

            self.fabric.connect(
                self.home, self.home, payload["accept_service"],
                payload={"role": "tool", "user": self.user,
                         "host": self.home},
                on_established=established,
                on_failed=self._fail)

        def bootstrap_established(endpoint) -> None:
            endpoint.on_message = bootstrap_replied

        self.fabric.connect(
            self.home, self.home, INETD_SERVICE,
            payload={"service": PPM_SERVICE, "user": self.user,
                     "origin_host": self.home, "origin_user": self.user},
            on_established=bootstrap_established,
            on_failed=self._fail)

    def _on_message(self, message, _endpoint) -> None:
        if not isinstance(message, Message) or message.reply_to is None:
            return
        callback = self._pending.pop(message.reply_to, None)
        if callback is not None:
            callback(message.payload)

    def _on_close(self, _reason, endpoint) -> None:
        if endpoint is not self._endpoint:
            return
        self._endpoint = None
        if self._pending:  # the LPM died mid-conversation
            self._pending.clear()
            self._fail()

    def _call(self, kind: MsgKind, payload: dict,
              on_reply: Callable[[dict], None]) -> None:
        self._req += 1
        request = Message(kind=kind, req_id=self._req, origin=self.home,
                          user=self.user, payload=payload)
        self._pending[request.req_id] = on_reply
        self._endpoint.send(
            request, extra_delay_ms=self.fabric.tool_send_delay_ms(self.home))

    def _timed(self, op: str, kind: MsgKind, payload: dict,
               then: Callable[[dict], None]) -> None:
        start = self.fabric.now_ms

        def replied(reply: dict) -> None:
            self.record(op, self.fabric.now_ms - start)
            if not reply.get("ok"):
                self._fail()
                return
            then(reply)

        self._call(kind, payload, replied)

    def _fresh_tool_op(self, op: str, kind: MsgKind, payload: dict,
                       then: Callable[[dict], None]) -> None:
        """Open a new tool stream (a separate tool process in the
        paper), issue one request, close the stream, continue."""
        def ready(endpoint) -> None:
            def done(reply: dict) -> None:
                endpoint.close()
                self._endpoint = None
                then(reply)

            self._timed(op, kind, payload, done)

        self._connect_tool(ready)

    # -- the session script -------------------------------------------

    def start(self) -> None:
        """login -> create* -> locate -> tool_call -> gather -> logout."""
        self._t0 = self.fabric.now_ms
        self._connect_tool(self._logged_in)

    def _logged_in(self, _endpoint) -> None:
        self.record("login", self.fabric.now_ms - self._t0)
        self._create_next(0)

    def _create_next(self, index: int) -> None:
        if index >= len(self.create_targets):
            self._endpoint.close()
            self._endpoint = None
            self._locate()
            return
        target = self.create_targets[index]

        def created(reply: dict) -> None:
            self.created.append((reply["host"], reply["pid"]))
            self._create_next(index + 1)

        self._timed("create", MsgKind.TOOL_CREATE,
                    {"command": "job-%s-%s" % (self.user, target),
                     "args": [], "program": spinner_spec(None),
                     "host": target, "foreground": False}, created)

    def _locate(self) -> None:
        host, pid = self.created[self.locate_index % len(self.created)]
        self._fresh_tool_op("locate", MsgKind.TOOL_LOCATE,
                            {"host": host, "pid": pid},
                            lambda _reply: self._ping())

    def _ping(self) -> None:
        self._fresh_tool_op("tool_call", MsgKind.TOOL_PING, {},
                            lambda _reply: self._gather())

    def _gather(self) -> None:
        self._fresh_tool_op("gather", MsgKind.TOOL_SNAPSHOT, {},
                            lambda _reply: self._finish())


# ----------------------------------------------------------------------
# World + schedule construction
# ----------------------------------------------------------------------

def build_multitenant_world(n_users: int, n_hosts: int, gateways: int,
                            seed: int):
    """An N-host fleet (``gateways`` fully meshed, the rest hanging off
    them round-robin) with M user accounts, ready for sessions.

    Returns ``(world, names, users, homes)`` where ``homes[user]`` is
    the user's (gateway) home host.
    """
    world = World(seed=seed)
    names = ["h%03d" % i for i in range(n_hosts)]
    for name in names:
        world.add_host(name, HostClass.VAX_780)
    gateway_names = names[:gateways]
    world.ethernet(gateway_names)
    wire = world.cost_model.wire_ms
    for index, leaf in enumerate(names[gateways:]):
        world.network.add_link(leaf, gateway_names[index % gateways],
                               latency_ms=wire)
    users = ["u%03d" % i for i in range(n_users)]
    homes = {}
    for index, user in enumerate(users):
        world.add_user(user, 2000 + index)
        homes[user] = gateway_names[index % gateways]
    install(world)
    for user in users:
        world.write_recovery_file(user, [homes[user]])
    return world, names, users, homes


class WorkloadState:
    """Per-world run state: schedules, per-op ladders, completion."""

    def __init__(self) -> None:
        self.hists: Dict[str, LatencyHistogram] = {
            op: LatencyHistogram() for op in OPS}
        #: Sessions finished (failed ones included).
        self.done = 0
        #: Sessions that aborted.
        self.failures = 0
        self.sessions: List[Session] = []


def schedule_sessions(world, users: List[str], homes: Dict[str, str],
                      leaf_names: List[str], fanout: int,
                      horizon_ms: float, seed: int) -> WorkloadState:
    """Draw the open-loop arrival schedule and pre-register every
    session as a future event.

    All randomness (arrival times, fan-out target sets, locate picks)
    is drawn *here*, from one seeded RNG — session execution itself
    draws nothing, so every run of one seed replays the identical
    workload.
    """
    rng = random.Random(seed)
    state = WorkloadState()
    # Lognormal inter-arrivals with the requested mean: heavy-tailed,
    # so arrivals clump into waves with long gaps between them.
    mean_gap_ms = horizon_ms / max(1, len(users))
    sigma = 1.0
    mu = math.log(mean_gap_ms) - sigma * sigma / 2.0

    def record(op: str, value_ms: float) -> None:
        state.hists[op].record(value_ms)

    def on_done(session: Session) -> None:
        state.done += 1
        if session.failed:
            state.failures += 1

    arrival_ms = 0.0
    for user in users:
        arrival_ms += rng.lognormvariate(mu, sigma)
        fan = min(fanout, len(leaf_names))
        targets = rng.sample(leaf_names, fan)
        locate_index = rng.randrange(fan)
        session = Session(world, user, homes[user], targets, locate_index,
                          record, on_done)
        state.sessions.append(session)
        world.fabric.schedule(arrival_ms, session.start)
    return state


# ----------------------------------------------------------------------
# The runner scenario
# ----------------------------------------------------------------------

#: Post-horizon drain: lets in-flight sessions settle before per-host
#: statistics are read.
DRAIN_MS = 10_000.0


def _open_links(world) -> int:
    """Open overlay links across the fleet (each counted at both ends)."""
    return sum(len(lpm.transport.authenticated())
               for lpm in world.lpms.values()) // 2


def multitenant_scenario(n_users: int = 50, n_hosts: int = 24,
                         gateways: int = 4, fanout: int = 10,
                         horizon_ms: float = 120_000.0,
                         seed: int = 47) -> Callable[[], dict]:
    """M users x N hosts under the open-loop workload, every user's
    LPM on its own private circuits (section 3).

    Builds the world (outside the measured window) and returns the
    measured phase as a zero-argument callable producing the result
    dict, which ``benchmarks.perf.runner`` times and counts like the
    ``run`` closure of every other scenario.  Reports per-op latency
    SLOs and the steady-state inter-host connection count.
    """
    world, names, users, homes = build_multitenant_world(
        n_users, n_hosts, gateways, seed)
    state = schedule_sessions(world, users, homes,
                              leaf_names=names[gateways:],
                              fanout=fanout, horizon_ms=horizon_ms,
                              seed=seed + 1)

    def run() -> dict:
        world.run_for(horizon_ms + DRAIN_MS)
        # Open-loop arrivals have a heavy tail; top up in bounded
        # slices until every session has reported done (or failed).
        rounds = 0
        while state.done < n_users and rounds < 60:
            world.run_for(30_000.0)
            rounds += 1
        assert state.done == n_users, \
            "only %d/%d sessions finished" % (state.done, n_users)
        # Sessions leave their fan-out processes running, so the links
        # counted here are the steady state a populated fleet holds.
        return {"n_users": n_users, "n_hosts": n_hosts,
                "gateways": gateways, "fanout": fanout,
                "failed_sessions": state.failures,
                "links_private": _open_links(world),
                "slo_private": slo_block(state.hists),
                "sim_ms_private": round(world.sim.now_ms, 3)}

    return run


# ----------------------------------------------------------------------
# Reporting SLOs
# ----------------------------------------------------------------------

def slo_block(hists: Dict[str, LatencyHistogram]) -> dict:
    """The per-op p50/p95/p99 block recorded in BENCH_core.json."""
    block = {}
    for op in OPS:
        summary = hists[op].summary()
        block[op] = {"count": summary["count"],
                     "p50_ms": summary["p50_ms"],
                     "p95_ms": summary["p95_ms"],
                     "p99_ms": summary["p99_ms"]}
    return block


def print_slo_table(block: dict) -> None:
    print("%-10s %8s %12s %12s %12s" % ("op", "count", "p50_ms",
                                        "p95_ms", "p99_ms"))
    for op in OPS:
        row = block[op]
        print("%-10s %8d %12s %12s %12s"
              % (op, row["count"], row["p50_ms"], row["p95_ms"],
                 row["p99_ms"]))


# ----------------------------------------------------------------------
# Standalone CLI (the CI smoke entry point)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse
    import time

    parser = argparse.ArgumentParser(
        prog="benchmarks.workloads",
        description="Open-loop multi-tenant workload: M users x N hosts.")
    parser.add_argument("--smoke", action="store_true",
                        help="small M x N for CI (8 users x 6 hosts)")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--hosts", type=int, default=None)
    parser.add_argument("--fanout", type=int, default=None)
    parser.add_argument("--horizon-s", type=float, default=None,
                        help="simulated arrival horizon in seconds")
    parser.add_argument("--budget-s", type=float, default=None,
                        help="fail (exit 2) past this wall-clock budget")
    parser.add_argument("--seed", type=int, default=47)
    args = parser.parse_args(argv)

    if args.smoke:
        defaults = dict(n_users=8, n_hosts=6, gateways=2, fanout=3,
                        horizon_ms=20_000.0)
    else:
        defaults = dict(n_users=50, n_hosts=24, gateways=4, fanout=10,
                        horizon_ms=120_000.0)
    if args.users is not None:
        defaults["n_users"] = args.users
    if args.hosts is not None:
        defaults["n_hosts"] = args.hosts
    if args.fanout is not None:
        defaults["fanout"] = args.fanout
    if args.horizon_s is not None:
        defaults["horizon_ms"] = args.horizon_s * 1000.0
    defaults["seed"] = args.seed

    start = time.perf_counter()
    result = multitenant_scenario(**defaults)()
    wall_s = time.perf_counter() - start
    print("%d steady-state inter-host links" % (result["links_private"],))
    print_slo_table(result["slo_private"])
    print("sessions: %d, %d failed"
          % (result["n_users"], result["failed_sessions"]))
    print("wall: %.2fs" % (wall_s,))
    if result["failed_sessions"]:
        print("FAILED SESSIONS — workload did not complete cleanly")
        return 1
    if args.budget_s is not None and wall_s > args.budget_s:
        print("WALL BUDGET EXCEEDED: %.2fs > %.2fs"
              % (wall_s, args.budget_s))
        return 2
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
