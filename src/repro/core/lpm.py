"""The Local Process Manager.

"The personal process manager, PPM, is a distributed program implemented
as a collection of user-level processes called local process managers,
LPMs.  LPMs are created on demand, and are the basis of our management
and control mechanism." (section 2)

Each LPM is itself a process in the simulated kernel (plus its handler
processes, see :mod:`repro.core.dispatcher`).  Its communication
end points follow Figure 4: one *kernel* socket where the kernel
deposits event messages, one *accept* socket whose address the pmd
distributes, and per-peer sockets for sibling LPMs and local tools.

The LPM itself is a thin coordinator over four layers, one per facility
the paper describes:

* :mod:`repro.core.transport` — authenticated sibling channels, both
  the stream circuits and the section 3 datagram alternative;
* :mod:`repro.core.rpc` — request/reply with handlers, timeouts,
  retransmission, and the server-side exactly-once cache;
* :mod:`repro.core.router` — forwarding over cached source-destination
  routes, route learning and invalidation;
* :mod:`repro.core.gather` — the recursive snapshot/rstats collection
  with gpid-sorted record merging;
* :mod:`repro.core.topology` — session membership and the
  bounded-degree ``sparse`` overlay wiring;
* :mod:`repro.core.spantree` — per-source broadcast trees (prune on
  duplicate feedback, flood fallback and repair).

What remains here is what only the LPM can do: own the kernel and
accept sockets, the local process records, request execution
(control/create/locate), the time-to-live, and shutdown.  The layering
is one-directional — layers call back into the LPM's injected surface
(clock, CPU booking, trace hook, sibling dispatch), never into each
other's internals — and is enforced by ``tools/check_layering.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConnectionClosedError, ReproError
from ..ids import GlobalPid
from ..latency import load_factor
from ..perf import PERF
from ..tracing.events import TraceEventType
from ..unixsim.process import ProcState, trace_flags_from_names
from ..util import Deferred
from .broadcast import BroadcastEngine
from .control import ControlAction, apply_action
from .dispatcher import HandlerPool
from .gather import GatherEngine
from .messages import Message, MsgKind
from .processtable import INFRA_COMMANDS, ProcessTable
from .recovery import RecoveryManager
from .router import MessageRouter
from .rpc import RequestChannel
from .spantree import TreeBroadcast
from .toolservice import ToolService
from .topology import TopologyManager
from .transport import SiblingTransport

__all__ = ["INFRA_COMMANDS", "LocalProcessManager", "install"]

#: How long a cache-first LOCATE probe (unicast along a cached route)
#: waits before falling back to the broadcast flood.
LOCATE_PROBE_TIMEOUT_MS = 2_000.0

#: Trace granularity for adopted processes, as flag names from
#: :mod:`repro.tracing.events` (section 2: "accept parameters that
#: determine the amount of process events recorded"); tools change it
#: per process with ``TOOL_SET_TRACE``.
DEFAULT_TRACE_FLAGS = ("fork", "exec", "exit", "signal", "state")


class LocalProcessManager:
    """One user's process manager on one host."""

    def __init__(self, host, user: str, token: str) -> None:
        self.host = host
        self.world = host.world
        self.sim = host.sim
        #: The backend seam: all connection establishment and datagram
        #: traffic goes through here (see :mod:`repro.core.fabric`).
        self.fabric = host.world.fabric
        self.user = user
        self.uid = host.uid_of(user)
        self.token = token
        self.config = self.world.config
        self.cost = self.world.cost_model
        self.alive = True

        # The LPM is a user-level process of its owner.
        self.proc = host.kernel.spawn(self.uid, "lpm",
                                      state=ProcState.SLEEPING)
        self.table = ProcessTable(self)
        # Figure 4's end points: the accept socket...
        self.accept_service = "lpm:%s:%s" % (user, token[:8])
        host.node.listen(self.accept_service, self._accept)
        # ...and the kernel socket.
        host.kernel.register_lpm(self.uid, self.table.on_kernel_message)

        #: Session secret for signing broadcast stamps; merged on HELLO.
        self.secret = "%016x" % self.sim.rng.getrandbits(64)
        recovery_list = host.fs.read_recovery_file(user)
        #: The crash coordinator site, "established by default by the
        #: system when the user first invokes the mechanism" (section 5).
        self.ccs_host = recovery_list[0] if recovery_list else host.name

        self.pool = HandlerPool(self)
        self.broadcast = BroadcastEngine(
            host.name, self.config.broadcast_dedup_window_ms,
            lambda: self.sim.now_ms, lambda: self.secret)
        # The layers (see the module docstring) plus tool serving.
        self.transport = SiblingTransport(self)
        self.topology = TopologyManager(self)
        self.treecast = TreeBroadcast(self)
        self.router = MessageRouter(self)
        self.rpc = RequestChannel(self)
        self.gather = GatherEngine(self)
        self.tool_service = ToolService(self)
        self.recovery = RecoveryManager(self)

        self.tools: List = []
        self._cpu_free_ms = 0.0
        self._ttl_timer = None
        self.trace_flags = trace_flags_from_names(DEFAULT_TRACE_FLAGS)

        self._trace(TraceEventType.LPM_CREATED)
        # Under the section 5 name-server alternative, announce ourselves
        # and adopt the administrator's coordinator assignment.
        self.recovery.register_with_name_server()
        self._arm_ttl()

    # ==================================================================
    # Identity helpers
    # ==================================================================

    @property
    def name(self) -> str:
        return self.host.name

    def gpid_of(self, pid: int) -> GlobalPid:
        return GlobalPid(self.name, pid)

    def _trace(self, event_type: TraceEventType, gpid=None, **details):
        self.world.recorder.record(event_type, host=self.name,
                                   user=self.user, gpid=gpid, **details)

    def _cpu(self, base_ms: float) -> float:
        """Load- and class-scaled CPU cost on this host."""
        return base_ms * load_factor(self.host.host_class,
                                     self.host.load_average())

    def _cpu_occupy(self, base_ms: float) -> float:
        """Book serialised CPU time on this LPM.

        The LPM's dispatcher is one process on one CPU: two message
        sends (or merges) issued at the same instant cannot overlap.
        Returns the delay from now until the booked work completes
        (queueing plus the load-scaled cost)."""
        cost = self._cpu(base_ms)
        start = max(self.sim.now_ms, self._cpu_free_ms)
        self._cpu_free_ms = start + cost
        return (start - self.sim.now_ms) + cost

    def is_running(self) -> bool:
        return self.alive and self.proc.alive and self.host.up

    def describe_endpoints(self) -> dict:
        """Figure 4 data: the LPM's communication end points."""
        return {
            "user": self.user,
            "host": self.name,
            "kernel_socket": "kernel(uid=%d)" % (self.uid,),
            "accept_socket": self.accept_service,
            "sibling_sockets": self.authenticated_siblings(),
            "tool_sockets": ["tool#%d" % i
                             for i, _ in enumerate(self.tools, start=1)],
        }

    # ==================================================================
    # Layer facades (the stable surface the layers, recovery, tests,
    # and benchmarks address; each is a one-line delegation)
    # ==================================================================

    @property
    def siblings(self) -> Dict:
        return self.transport.links

    @property
    def routes(self):
        return self.router.cache

    @property
    def dgram(self):
        return self.transport.dgram

    @property
    def records(self) -> Dict:
        return self.table.records

    @property
    def _pending(self) -> Dict:
        return self.rpc.pending

    def authenticated_siblings(self) -> List[str]:
        return self.transport.authenticated()

    def ensure_sibling(self, peer: str) -> Deferred:
        return self.transport.ensure_sibling(peer)

    def send_request(self, dest: str, kind: MsgKind, payload: dict,
                     on_reply: Callable[[Optional[Message]], None],
                     timeout_ms: Optional[float] = None,
                     route: Optional[List[str]] = None,
                     broadcast=None, use_handler: bool = True,
                     trace_parent=None) -> None:
        self.rpc.send_request(dest, kind, payload, on_reply,
                              timeout_ms=timeout_ms, route=route,
                              broadcast=broadcast, use_handler=use_handler,
                              trace_parent=trace_parent)

    def _route_send(self, message: Message) -> None:
        self.router.route_send(message)

    def create_local_process(self, command: str, args=(), program_spec=None,
                             parent: Optional[GlobalPid] = None,
                             foreground: bool = True):
        return self.table.create_local_process(
            command, args, program_spec, parent=parent,
            foreground=foreground)

    def adopt_process(self, pid: int) -> List[int]:
        return self.table.adopt_process(pid)

    def local_records(self, what: str = "snapshot") -> List[dict]:
        return self.table.local_records(what)

    # ==================================================================
    # Accept socket: siblings and tools connect here
    # ==================================================================

    def _accept(self, endpoint, payload) -> None:
        if not self.is_running() or not isinstance(payload, dict):
            endpoint.close()
            return
        role = payload.get("role")
        if role == "tool":
            self._accept_tool(endpoint, payload)
        elif role == "sibling":
            self.transport.accept_sibling(endpoint, payload)
        else:
            endpoint.close()

    def _accept_tool(self, endpoint, payload) -> None:
        # Tools are local, same-user programs (shell built-ins, the
        # subroutine library): reject anything else.
        if payload.get("user") != self.user or \
                payload.get("host", self.name) != self.name:
            endpoint.close()
            return
        self.tools.append(endpoint)
        endpoint.on_message = self.tool_service.on_message
        endpoint.on_close = self._tool_on_close
        self._trace(TraceEventType.CONN_OPEN, kind="tool")

    def _tool_on_close(self, reason: str, endpoint) -> None:
        if endpoint in self.tools:
            self.tools.remove(endpoint)
        self._arm_ttl()

    # ==================================================================
    # Sibling message reception and dispatch
    # ==================================================================

    def _sibling_on_message(self, message: Message, endpoint) -> None:
        if not self.is_running():
            return
        if not isinstance(message, Message):
            return  # garbage on the channel is dropped, not fatal
        # Routed-through traffic is relayed at the dispatcher with only
        # forwarding cost, no handler (hence Table 2's cheap extra hop).
        if message.final_dest is not None and message.final_dest != self.name:
            self.router.forward(message, endpoint.peer_name)
            return
        delay = self._cpu_occupy(self.cost.sibling_recv_ms)
        self.sim.schedule(delay, self._handle_sibling, message, endpoint)

    def _handle_sibling(self, message: Message, endpoint) -> None:
        if not self.is_running():
            return
        peer = endpoint.peer_name
        if message.is_reply:
            self.rpc.handle_reply(message)
            return
        kind = message.kind
        if kind is MsgKind.HELLO_ACK:
            self.transport.handle_hello_ack(message, endpoint)
        elif kind is MsgKind.GATHER:
            self.gather.handle_gather(message, peer)
        elif kind is MsgKind.CONTROL:
            self._handle_control(message)
        elif kind is MsgKind.CREATE:
            self._handle_create(message)
        elif kind is MsgKind.LOCATE:
            self._handle_locate(message, peer)
        elif kind is MsgKind.TOPO_GOSSIP:
            self.topology.on_gossip(message)
        elif kind is MsgKind.TREE_PRUNE:
            self.treecast.on_prune(message, peer)
        elif kind is MsgKind.TREE_REPAIR:
            self.treecast.on_repair(message, peer)
        elif kind is MsgKind.CCS_REPORT:
            self.recovery.on_ccs_report(message)
        elif kind is MsgKind.CCS_PROBE:
            self.recovery.on_ccs_probe(message)

    # ==================================================================
    # Control and creation requests from siblings
    # ==================================================================

    def _apply_control(self, pid: int, action_name: str) -> dict:
        try:
            action = ControlAction(action_name)
        except ValueError:
            return {"ok": False, "error": "unknown action %r"
                                          % (action_name,)}
        try:
            apply_action(self.host.kernel, pid, action, self.uid)
        except ReproError as exc:
            return {"ok": False, "error": "%s: %s"
                                          % (type(exc).__name__, exc)}
        return {"ok": True, "pid": pid, "action": action.value,
                "host": self.name}

    def _handle_control(self, message: Message) -> None:
        if self.rpc.note_request_started(message):
            return
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.start(
            "serve:control", host=self.name, parent=message.trace,
            cat="serve")

        def acted() -> None:
            result = self._apply_control(message.payload["pid"],
                                         message.payload["action"])
            self.rpc.note_request_done(message, result)
            reply = message.make_reply(MsgKind.CONTROL_ACK, self.name,
                                       result)
            self.router.route_send(reply)
            if span is not None:
                tracer.finish(span, ok=bool(result.get("ok")))

        # signal delivery plus the kernel's confirmation (section 6).
        self.sim.schedule(self._cpu(self.cost.signal_ms), acted)

    def _handle_create(self, message: Message) -> None:
        if self.rpc.note_request_started(message):
            return
        payload = message.payload
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.start(
            "serve:create", host=self.name, parent=message.trace,
            cat="serve")

        def created() -> None:
            parent = payload.get("parent")
            parent_gpid = GlobalPid(parent[0], parent[1]) if parent else None
            try:
                proc = self.create_local_process(
                    payload["command"], tuple(payload.get("args", ())),
                    payload.get("program"), parent=parent_gpid,
                    foreground=payload.get("foreground", True))
            except ReproError as exc:
                result = {"ok": False, "error": str(exc)}
            else:
                result = {"ok": True, "host": self.name, "pid": proc.pid}
            self.rpc.note_request_done(message, result)
            reply = message.make_reply(MsgKind.CREATE_ACK, self.name,
                                       result)
            self.router.route_send(reply)
            if span is not None:
                tracer.finish(span, ok=bool(result.get("ok")))

        # The LPM is the ready process-creation server: a cheap fork.
        self.sim.schedule(self._cpu(self.cost.server_fork_ms), created)

    def _handle_locate(self, message: Message, from_host: str) -> None:
        tracer = self.sim.tracer
        if message.broadcast is None:
            # A cache-first unicast probe addressed to this host (the
            # sparse policy's fast path): answer found / not-found
            # directly; no flood, no dedup state.
            target = message.payload["pid"]
            found = message.payload["host"] == self.name and \
                target in self.records
            payload = {"ok": found, "host": self.name, "pid": target}
            if found:
                payload["state"] = self.records[target].state
            self.router.route_send(message.make_reply(
                MsgKind.LOCATE_ACK, self.name, payload))
            return
        if not self.broadcast.should_accept(message.broadcast,
                                            hops=len(message.route)):
            if tracer is not None:
                tracer.instant("dedup:drop", host=self.name,
                               parent=message.trace, cat="broadcast",
                               origin=message.origin)
            self._trace(TraceEventType.BROADCAST_DUPLICATE,
                        origin=message.origin)
            # Duplicate-drop feedback: this edge is not a tree edge.
            self.treecast.on_duplicate(message, from_host)
            return
        if tracer is not None:
            tracer.instant("dedup:accept", host=self.name,
                           parent=message.trace, cat="broadcast",
                           origin=message.origin)
        target = message.payload["pid"]
        target_host = message.payload["host"]
        if target_host == self.name and target in self.records:
            # The flood stops here; leave a leaf tree entry so repeat
            # tree broadcasts don't mistake this host for severed state.
            self.treecast.on_found(message, from_host)
            reply = message.make_reply(
                MsgKind.LOCATE_ACK, self.name,
                {"ok": True, "host": self.name, "pid": target,
                 "state": self.records[target].state})
            self.router.route_send(reply)
            return
        # Flood onward (graph covering), extending the recorded route.
        # Loop suppression is the signed-timestamp seen-set alone, as in
        # the paper; the route is for the reply, not a visited list.
        # Under the sparse policy, a built tree narrows the targets to
        # this host's unpruned children (see repro.core.spantree).
        for peer in self.treecast.forward_targets(message, from_host):
            onward = Message(kind=MsgKind.LOCATE, req_id=message.req_id,
                             origin=message.origin, user=message.user,
                             payload=dict(message.payload),
                             route=message.route + [peer],
                             broadcast=message.broadcast,
                             trace=message.trace)
            link = self.siblings[peer]
            try:
                self.transport.send_on_link(link, onward, forwarding=True)
                self.broadcast.forwards += 1
                self._trace(TraceEventType.BROADCAST_FORWARDED,
                            origin=message.origin)
            except ConnectionClosedError:
                continue

    # ==================================================================
    # Locate by broadcast
    # ==================================================================

    def locate(self, host: str, pid: int,
               on_result: Callable[[Optional[Message]], None],
               timeout_ms: float = 5_000.0, trace_parent=None) -> None:
        """Find process ``<host, pid>`` on the overlay.

        Under the ``sparse`` policy the caches are consulted first: a
        fresh negative-cache entry answers None locally, and a cached
        (or direct) route to the owner host is probed with a unicast
        LOCATE.  Only the named host can ever answer a LOCATE, so its
        probe reply — found or not — is authoritative; only a stale or
        unanswerable route falls back to the broadcast flood.  Other
        policies broadcast immediately."""
        if self.config.topology_policy == "sparse":
            if self.router.locate_miss_fresh(host, pid):
                PERF.locate_cache_hits += 1
                self.sim.schedule(0.0, on_result, None)
                return
            route = self.router.outbound_route(host)
            if route is not None:
                self._locate_probe(host, pid, route, on_result,
                                   timeout_ms, trace_parent)
                return
        self._locate_flood(host, pid, on_result, timeout_ms,
                           trace_parent)

    def _locate_probe(self, host: str, pid: int, route: List[str],
                      on_result, timeout_ms: float,
                      trace_parent) -> None:
        """Unicast LOCATE along a cached route; flood on failure."""
        def on_probe(reply: Optional[Message]) -> None:
            if reply is not None and reply.payload.get("ok"):
                PERF.locate_cache_hits += 1
                on_result(reply)
                return
            if reply is not None and reply.payload.get("host") == host:
                # The owner host itself said "not found" — flooding
                # cannot find a better answer, so cache the miss.
                PERF.locate_cache_hits += 1
                self.router.note_locate_miss(host, pid)
                on_result(None)
                return
            PERF.locate_cache_stale += 1
            self.routes.forget(host)
            self._locate_flood(host, pid, on_result, timeout_ms,
                               trace_parent)

        self.send_request(host, MsgKind.LOCATE, {"host": host, "pid": pid},
                          on_probe,
                          timeout_ms=LOCATE_PROBE_TIMEOUT_MS,
                          route=route, use_handler=False,
                          trace_parent=trace_parent)

    def _locate_flood(self, host: str, pid: int, on_result,
                      timeout_ms: float, trace_parent) -> None:
        """Broadcast a LOCATE over the sibling graph; the owner answers
        along the recorded route."""
        stamp = self.broadcast.stamp()
        req_id = self.rpc.next_req_id()
        resolved = Deferred()
        tracer = self.sim.tracer
        sparse = self.config.topology_policy == "sparse"
        span = None if tracer is None else tracer.start(
            "broadcast:locate", host=self.name, parent=trace_parent,
            cat="broadcast", target="%s/%s" % (host, pid))

        def on_ack(reply: Optional[Message]) -> None:
            if resolved.resolve(reply):
                if span is not None:
                    tracer.finish(
                        span, op="broadcast_settle",
                        outcome="found" if reply is not None else "timeout")
                if sparse:
                    if reply is None:
                        self.router.note_locate_miss(host, pid)
                    else:
                        self.router.locate_misses.discard((host, pid))
                on_result(reply)

        timer = self.sim.schedule(timeout_ms, on_ack, None)
        self.rpc.register(req_id, on_ack, timer)
        peers, tree_mode = self.treecast.origin_targets(stamp)
        if not peers:
            self.rpc.cancel(req_id)
            on_ack(None)
            return
        self._trace(TraceEventType.BROADCAST_SENT, what="locate")
        for peer in peers:
            payload = {"host": host, "pid": pid}
            if tree_mode:
                payload["tree"] = True
            locate = Message(kind=MsgKind.LOCATE, req_id=req_id,
                             origin=self.name, user=self.user,
                             payload=payload,
                             route=[self.name, peer], broadcast=stamp,
                             trace=None if span is None else span.ctx())
            try:
                self.transport.send_on_link(self.siblings[peer], locate)
            except ConnectionClosedError:
                continue

    # ==================================================================
    # Time-to-live and shutdown
    # ==================================================================

    def _user_has_presence(self) -> bool:
        """Live user processes or attached tools keep the LPM needed."""
        if any(endpoint.open for endpoint in self.tools):
            return True
        for proc in self.host.kernel.procs.alive_by_uid(self.uid):
            if proc.command not in INFRA_COMMANDS:
                return True
        return False

    def _arm_ttl(self) -> None:
        """(Re)arm the time-to-live countdown when idle (section 3:
        "LPMs have a time-to-live period during which they are still
        present in a host even though that host may no longer contain
        processes belonging to their user")."""
        if not self.is_running():
            return
        self._cancel_ttl()
        if self._user_has_presence():
            return
        self._ttl_timer = self.sim.schedule(
            self.config.lpm_time_to_live_ms, self._ttl_expired)

    def _cancel_ttl(self) -> None:
        if self._ttl_timer is not None:
            self.sim.cancel(self._ttl_timer)
            self._ttl_timer = None

    def _ttl_expired(self) -> None:
        self._ttl_timer = None
        if not self.is_running() or self._user_has_presence():
            return
        # "For the CCS, the time-to-live interval has a different
        # meaning: as long as there is any sibling LPM in the networked
        # system, time-to-live is not decremented." (section 5)
        if self.ccs_host == self.name and self.authenticated_siblings():
            self._arm_ttl()
            return
        self._trace(TraceEventType.LPM_EXPIRED)
        self.shutdown("time-to-live expired")

    def shutdown(self, reason: str) -> None:
        """Orderly exit: close channels, free the pmd record, exit."""
        if not self.alive:
            return
        self.alive = False
        self.recovery.cancel_timers()
        self.topology.shutdown()
        self._cancel_ttl()
        self.rpc.cancel_all()
        self.transport.shutdown()
        for endpoint in list(self.tools):
            if endpoint.open:
                endpoint.close()
        self.tools.clear()
        if not self.host.kernel.halted:
            self.host.kernel.unregister_lpm(self.uid)
            self.host.node.unlisten(self.accept_service)
            if self.host.pmd_daemon is not None:
                self.host.pmd_daemon.forget(self.user)
            self.pool.shutdown()
            if self.proc.alive:
                self.host.kernel.exit(self.proc.pid)
        self._trace(TraceEventType.LPM_DIED, reason=reason)


def install(world) -> None:
    """Make a world's pmds able to create real LPMs.

    Also hangs an ``lpms`` registry off the world (keyed by
    ``(host, user)``) so tests and tools can reach LPM objects directly.
    """
    def factory(host, user, token):
        lpm = LocalProcessManager(host, user, token)
        world.lpms[(host.name, user)] = lpm
        return lpm

    world.lpm_factory = factory
