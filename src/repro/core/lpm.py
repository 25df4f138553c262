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

* :mod:`repro.core.transport` — authenticated sibling circuits
  (section 3);
* :mod:`repro.core.rpc` — request/reply with handlers and timeouts;
* :mod:`repro.core.router` — forwarding over cached source-destination
  routes, route learning and invalidation;
* :mod:`repro.core.gather` — the recursive snapshot/rstats collection
  with gpid-sorted record merging.

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
from ..tracing.events import TraceEventType
from ..util import Deferred
from .broadcast import BroadcastEngine
from .control import ControlAction
from .dispatcher import HandlerPool
from .gather import GatherEngine
from .hostos import HostServices, ProcState, trace_flags_from_names
from .messages import Message, MsgKind
from .processtable import INFRA_COMMANDS, ProcessTable
from .recovery import RecoveryManager
from .router import MessageRouter
from .rpc import RequestChannel
from .toolservice import ToolService
from .transport import SiblingTransport

__all__ = ["LocalProcessManager", "install"]

#: Trace granularity for adopted processes, as flag names from
#: :data:`repro.core.hostos.TRACE_FLAG_NAMES` (section 2: "accept
#: parameters that determine the amount of process events recorded");
#: tools change it per process with ``TOOL_SET_TRACE``.
DEFAULT_TRACE_FLAGS = ("fork", "exec", "exit", "signal", "state")


class LocalProcessManager:
    """One user's process manager on one host."""

    def __init__(self, fabric, host: HostServices, user: str, token: str,
                 secret: str, config, cost, recorder) -> None:
        #: Clock, timers, tracer and connections (:mod:`.fabric`).
        self.fabric = fabric
        #: Everything else the LPM asks of its machine.
        self.host = host
        #: The host's name, read on every message: a plain attribute.
        self.name = host.name
        self.user = user
        self.uid = host.uid_of(user)
        self.token = token
        #: Session secret for signing broadcast stamps; merged on HELLO.
        self.secret = secret
        self.config = config
        self.cost = cost
        self.recorder = recorder
        self.alive = True

        # The LPM is a user-level process of its owner.
        self.proc = host.kernel.spawn(self.uid, "lpm",
                                      state=ProcState.SLEEPING)
        self.table = ProcessTable(self)
        # Figure 4's end points: the accept socket...
        self.accept_service = "lpm:%s:%s" % (user, token[:8])
        host.listen(self.accept_service, self._accept)
        # ...and the kernel socket.
        host.kernel.register_lpm(self.uid, self.table.on_kernel_message)

        recovery_list = host.read_recovery_file(user)
        #: The crash coordinator site, "established by default by the
        #: system when the user first invokes the mechanism" (section 5).
        self.ccs_host = recovery_list[0] if recovery_list else host.name

        self.pool = HandlerPool(self)
        self.broadcast = BroadcastEngine(
            host.name, self.config.broadcast_dedup_window_ms,
            lambda: self.fabric.now_ms, lambda: self.secret)
        # The layers (see the module docstring) plus tool serving.
        self.transport = SiblingTransport(self)
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

    def gpid_of(self, pid: int) -> GlobalPid:
        return GlobalPid(self.name, pid)

    def _trace(self, event_type: TraceEventType, gpid=None, **details):
        self.recorder.record(event_type, self.name, self.user, gpid,
                             **details)

    def _cpu(self, base_ms: float) -> float:
        """Load- and class-scaled CPU cost on this host."""
        host = self.host
        la = host.kernel.loadavg.value() if host.up else 0.0
        return base_ms * load_factor(host.host_class, la)

    def _cpu_occupy(self, base_ms: float) -> float:
        """Book serialised CPU time on this LPM.

        The LPM's dispatcher is one process on one CPU: two message
        sends (or merges) issued at the same instant cannot overlap.
        Returns the delay from now until the booked work completes
        (queueing plus the load-scaled cost)."""
        cost = self._cpu(base_ms)
        now_ms = self.fabric.now_ms
        start = max(now_ms, self._cpu_free_ms)
        self._cpu_free_ms = start + cost
        return (start - now_ms) + cost

    def is_running(self) -> bool:
        return self.alive and self.proc.state.alive

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
    def records(self) -> Dict:
        return self.table.records

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
        self.fabric.schedule(delay, self._handle_sibling, message, endpoint)

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
            return {"ok": False, "error": "unknown action %r" % (action_name,)}
        try:
            self.host.kernel.control(pid, action, self.uid)
        except ReproError as exc:
            return {"ok": False, "error": "%s: %s"
                                          % (type(exc).__name__, exc)}
        return {"ok": True, "pid": pid, "action": action.value,
                "host": self.name}

    def _handle_control(self, message: Message) -> None:
        tracer = self.fabric.tracer
        span = None if tracer is None else tracer.start(
            "serve:control", host=self.name, parent=message.trace,
            cat="serve")

        def acted() -> None:
            result = self._apply_control(message.payload["pid"],
                                         message.payload["action"])
            reply = message.make_reply(MsgKind.CONTROL_ACK, self.name,
                                       result)
            self.router.route_send(reply)
            if span is not None:
                tracer.finish(span, ok=bool(result.get("ok")))

        # signal delivery plus the kernel's confirmation (section 6).
        self.fabric.schedule(self._cpu(self.cost.signal_ms), acted)

    def _handle_create(self, message: Message) -> None:
        payload = message.payload
        tracer = self.fabric.tracer
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
            reply = message.make_reply(MsgKind.CREATE_ACK, self.name,
                                       result)
            self.router.route_send(reply)
            if span is not None:
                tracer.finish(span, ok=bool(result.get("ok")))

        # The LPM is the ready process-creation server: a cheap fork.
        self.fabric.schedule(self._cpu(self.cost.server_fork_ms), created)

    def _handle_locate(self, message: Message, from_host: str) -> None:
        tracer = self.fabric.tracer
        if not self.broadcast.should_accept(message.broadcast,
                                            hops=len(message.route)):
            if tracer is not None:
                tracer.instant("dedup:drop", host=self.name,
                               parent=message.trace, cat="broadcast",
                               origin=message.origin)
            self._trace(TraceEventType.BROADCAST_DUPLICATE,
                        origin=message.origin)
            return
        if tracer is not None:
            tracer.instant("dedup:accept", host=self.name,
                           parent=message.trace, cat="broadcast",
                           origin=message.origin)
        target = message.payload["pid"]
        target_host = message.payload["host"]
        if target_host == self.name and target in self.records:
            reply = message.make_reply(
                MsgKind.LOCATE_ACK, self.name,
                {"ok": True, "host": self.name, "pid": target,
                 "state": self.records[target].state})
            self.router.route_send(reply)
            return
        # Flood onward (graph covering), extending the recorded route.
        # Loop suppression is the signed-timestamp seen-set alone, as in
        # the paper; the route is for the reply, not a visited list.
        for peer in self.authenticated_siblings():
            if peer == from_host:
                continue
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
        """Find process ``<host, pid>`` by broadcasting a LOCATE over
        the sibling graph; the owner answers along the recorded route,
        and ``on_result`` gets the reply or None on timeout."""
        stamp = self.broadcast.stamp()
        req_id = self.rpc.next_req_id()
        resolved = Deferred()
        tracer = self.fabric.tracer
        span = None if tracer is None else tracer.start(
            "broadcast:locate", host=self.name, parent=trace_parent,
            cat="broadcast", target="%s/%s" % (host, pid))

        def on_ack(reply: Optional[Message]) -> None:
            if resolved.resolve(reply):
                if span is not None:
                    tracer.finish(
                        span, op="broadcast_settle",
                        outcome="found" if reply is not None else "timeout")
                on_result(reply)

        timer = self.fabric.schedule(timeout_ms, on_ack, None)
        self.rpc.register(req_id, on_ack, timer)
        peers = self.authenticated_siblings()
        if not peers:
            self.rpc.cancel(req_id)
            on_ack(None)
            return
        self._trace(TraceEventType.BROADCAST_SENT, what="locate")
        for peer in peers:
            locate = Message(kind=MsgKind.LOCATE, req_id=req_id,
                             origin=self.name, user=self.user,
                             payload={"host": host, "pid": pid},
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
        self._ttl_timer = self.fabric.schedule(
            self.config.lpm_time_to_live_ms, self._ttl_expired)

    def _cancel_ttl(self) -> None:
        if self._ttl_timer is not None:
            self.fabric.cancel(self._ttl_timer)
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
        self._cancel_ttl()
        self.rpc.cancel_all()
        self.transport.shutdown()
        for endpoint in list(self.tools):
            if endpoint.open:
                endpoint.close()
        self.tools.clear()
        if not self.host.kernel.halted:
            self.host.kernel.unregister_lpm(self.uid)
            self.host.unlisten(self.accept_service)
            self.host.forget_lpm(self.user)
            self.pool.shutdown()
            if self.proc.alive:
                self.host.kernel.exit(self.proc.pid)
        self._trace(TraceEventType.LPM_DIED, reason=reason)


def install(world) -> None:
    """Make a world's pmds able to create real LPMs.

    The one place that knows the world: each LPM gets its fabric,
    config, cost model and recorder.  Also hangs an ``lpms`` registry
    off the world (keyed by ``(host, user)``) so tests and tools can
    reach LPM objects directly.
    """
    def factory(host, user, token):
        # The simulator RNG's next draw after the pmd's token.
        secret = "%016x" % world.sim.rng.getrandbits(64)
        lpm = LocalProcessManager(world.fabric, host, user, token, secret,
                                  world.config, world.cost_model,
                                  world.recorder)
        world.lpms[(host.name, user)] = lpm
        return lpm

    world.lpm_factory = factory
