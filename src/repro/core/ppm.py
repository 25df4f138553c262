"""The Personal Process Manager facade.

Where :class:`repro.core.client.PPMClient` is one tool talking to one
LPM, :class:`PersonalProcessManager` represents the user's whole
distributed session: it installs the LPM implementation into the world,
writes the ``.recovery`` list, bootstraps the home LPM, and offers the
computation-level operations the paper motivates — locate the execution
sites of a computation and broadcast a software interrupt to stop it
(section 1).
"""

from __future__ import annotations

from typing import List, Optional

from ..ids import GlobalPid
from ..perf import PERF
from ..tracing.events import TraceEventType
from ..tracing.triggers import Trigger, TriggerEngine
from .client import PPMClient
from .control import ControlAction
from .lpm import install
from .rstats import CommandUsage, build_report
from .snapshot import SnapshotForest


class PersonalProcessManager:
    """One user's PPM across a simulated network."""

    def __init__(self, world, user: str, home_host: str,
                 recovery_hosts: Optional[List[str]] = None) -> None:
        self.world = world
        self.user = user
        self.home_host = home_host
        if world.lpm_factory is None:
            install(world)
        if recovery_hosts is not None:
            world.write_recovery_file(user, recovery_hosts)
        self.client = PPMClient(world, user, home_host)
        self._trigger_engine: Optional[TriggerEngine] = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PersonalProcessManager":
        """Invoke the mechanism: create (or re-attach to) the home LPM."""
        self.client.connect()
        return self

    def logout(self) -> None:
        """Close the tool connection; the PPM outlives the session."""
        self.client.close()

    def relogin(self, host: Optional[str] = None) -> PPMClient:
        """A new login "will yield an existing" LPM (section 4); the new
        tool reconnects and regains knowledge of all managed processes."""
        client = PPMClient(self.world, self.user,
                           host if host is not None else self.home_host)
        client.connect()
        self.client = client
        return client

    # ------------------------------------------------------------------
    # Delegated tool operations
    # ------------------------------------------------------------------

    def create_process(self, command: str, host: Optional[str] = None,
                       args=(), program: Optional[dict] = None,
                       parent: Optional[GlobalPid] = None,
                       foreground: bool = True) -> GlobalPid:
        return self.client.create_process(command, host=host, args=args,
                                          program=program, parent=parent,
                                          foreground=foreground)

    def control(self, gpid: GlobalPid, action) -> dict:
        return self.client.control(gpid, action)

    def snapshot(self, prune: bool = True) -> SnapshotForest:
        return self.client.snapshot(prune=prune)

    def rstats_report(self) -> List[CommandUsage]:
        return build_report(self.client.rstats())

    def adopt(self, pid: int) -> List[int]:
        return self.client.adopt(pid)

    def session_info(self) -> dict:
        return self.client.session_info()

    def perf_stats(self) -> dict:
        """Hot-path performance counters plus simulator totals.

        The counters (see :mod:`repro.perf`) are process-global and
        always on; this is a read-only snapshot for experiments and
        tests that want to assert on redundant work (re-encodes,
        re-hashed stamps, dedup scans, heap compactions) rather than on
        wall-clock noise.

        When span tracing is enabled (:meth:`enable_span_tracing`), a
        ``latency_ms`` section carries the per-operation-class
        histograms — count, mean, extrema, p50/p95/p99 — for rpc
        round-trips, broadcast settles, gather completions, stream
        delivery lag, and tool calls, plus span retention totals.
        """
        stats = PERF.snapshot()
        stats["sim_now_ms"] = self.world.sim.now_ms
        tracer = self.world.sim.tracer
        if tracer is not None:
            stats["latency_ms"] = tracer.latency_summary()
            stats["spans_kept"] = len(tracer.spans)
            stats["spans_dropped"] = tracer.dropped
        return stats

    def enable_span_tracing(self, max_spans: Optional[int] = None):
        """Attach a span tracer to the session's simulator and return
        it (see :mod:`repro.perf.spans`).  Idempotent: an existing
        tracer is returned unchanged."""
        from ..perf.spans import DEFAULT_MAX_SPANS, enable_tracing
        sim = self.world.sim
        if sim.tracer is not None:
            return sim.tracer
        return enable_tracing(
            sim, max_spans=DEFAULT_MAX_SPANS if max_spans is None
            else max_spans)

    # ------------------------------------------------------------------
    # History-dependent triggers (section 1)
    # ------------------------------------------------------------------

    @property
    def triggers(self) -> TriggerEngine:
        """The session's trigger engine, created on first use."""
        if self._trigger_engine is None:
            self._trigger_engine = TriggerEngine(self.world.recorder)
        return self._trigger_engine

    def add_trigger(self, name: str, action,
                    event_type: Optional[TraceEventType] = None,
                    predicate=None, once: bool = False) -> Trigger:
        """Set a (possibly history-dependent) event-driven user action:
        "history dependent events can be set by users to trigger process
        state changes" (section 1).  The trigger fires only for this
        user's events."""
        user = self.user

        def scoped(event, history) -> bool:
            if event.user and event.user != user:
                return False
            if predicate is not None:
                return predicate(event, history)
            return True

        return self.triggers.add(Trigger(name=name, action=action,
                                         event_type=event_type,
                                         predicate=scoped, once=once))

    # ------------------------------------------------------------------
    # Computation-level operations (section 1's motivating facilities)
    # ------------------------------------------------------------------

    def execution_sites(self, root: GlobalPid) -> List[str]:
        """The hosts on which a computation is *currently* executing:
        sites holding live members (retained exit records do not count
        as execution)."""
        forest = self.snapshot(prune=False)
        if root not in forest:
            return []
        members = [root] + forest.descendants(root)
        return sorted({gpid.host for gpid in members
                       if not forest.records[gpid].exited})

    def signal_computation(self, root: GlobalPid,
                           action: ControlAction) -> List[dict]:
        """Broadcast a software interrupt to a whole computation: the
        root and every descendant, wherever each executes — the facility
        the paper says contemporaries lacked (section 1).

        Children are acted on before parents so a KILL cannot orphan
        descendants into unmanageability mid-flight.
        """
        forest = self.snapshot(prune=False)
        targets = [gpid for gpid in forest.descendants(root)
                   if not forest.records[gpid].exited]
        if root in forest and not forest.records[root].exited:
            targets.append(root)
        results = []
        for gpid in targets:
            results.append(self.client.control(gpid, action))
        return results

    def stop_computation(self, root: GlobalPid) -> List[dict]:
        return self.signal_computation(root, ControlAction.STOP)

    def continue_computation(self, root: GlobalPid) -> List[dict]:
        return self.signal_computation(root, ControlAction.CONTINUE)

    def kill_computation(self, root: GlobalPid) -> List[dict]:
        return self.signal_computation(root, ControlAction.KILL)

    def __repr__(self) -> str:
        return "PersonalProcessManager(%s@%s)" % (self.user, self.home_host)
