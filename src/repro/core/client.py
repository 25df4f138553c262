"""The subroutine library for PPM tools.

"A library of subroutines handles most interactions with the PPM, so
that user-written programs may easily make use of PPM's capabilities."
(section 6)

A :class:`PPMClient` is such a user-written tool: it bootstraps the
local LPM through inetd/pmd (Figure 2), opens a tool stream to the
accept socket, and issues requests.  "The PPM mechanism is not
integrated with any command interpreter, and thus its services must be
obtained by one of a series of tools" (section 4) — the snapshot and
rstats calls here are exactly the two tools the paper's implementation
included.

All public methods are synchronous from the caller's point of view:
they drive the simulation until the reply arrives (or a timeout).
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..errors import NoLPMError, PPMError, RequestTimeoutError
from ..ids import GlobalPid
from ..unixsim.inetd import INETD_SERVICE, PPM_SERVICE
from ..util import Deferred
from .control import ControlAction
from .messages import Message, MsgKind
from .snapshot import ProcessRecord, SnapshotForest


class PPMClient:
    """A tool connected to the user's local LPM."""

    def __init__(self, world, user: str, host_name: str) -> None:
        self.world = world
        self.fabric = world.fabric
        self.user = user
        self.host_name = host_name
        self.endpoint = None
        self._req_counter = 0
        self._pending = {}
        self.default_timeout_ms = 120_000.0

    # ------------------------------------------------------------------
    # Connection bootstrap (Figure 2 plus the tool stream)
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.endpoint is not None and self.endpoint.open

    def connect(self, timeout_ms: float = 120_000.0) -> "PPMClient":
        """Obtain (creating if needed) the local LPM and open the tool
        stream.  Returns self for chaining."""
        if self.connected:
            return self
        done = Deferred()

        def bootstrap_replied(payload, bootstrap_endpoint) -> None:
            bootstrap_endpoint.close()
            if not payload.get("ok"):
                done.resolve(PPMError(payload.get("error", "bootstrap failed")))
                return
            self._open_tool_stream(payload["accept_service"], done)

        def bootstrap_established(bootstrap_endpoint) -> None:
            bootstrap_endpoint.on_message = bootstrap_replied

        self.fabric.connect(
            self.host_name, self.host_name, INETD_SERVICE,
            payload={"service": PPM_SERVICE, "user": self.user,
                     "origin_host": self.host_name,
                     "origin_user": self.user},
            on_established=bootstrap_established,
            on_failed=lambda reason: done.resolve(NoLPMError(reason)))

        if not self.fabric.run_until_true(lambda: done.resolved,
                                          timeout_ms=timeout_ms):
            raise RequestTimeoutError("LPM bootstrap on %s"
                                      % (self.host_name,))
        if isinstance(done.value, Exception):
            raise done.value
        return self

    def _open_tool_stream(self, accept_service: str, done: Deferred) -> None:
        def established(endpoint) -> None:
            self.endpoint = endpoint
            endpoint.on_message = self._on_message
            endpoint.on_close = self._on_close
            done.resolve(endpoint)

        self.fabric.connect(
            self.host_name, self.host_name, accept_service,
            payload={"role": "tool", "user": self.user,
                     "host": self.host_name},
            on_established=established,
            on_failed=lambda reason: done.resolve(NoLPMError(reason)))

    def close(self) -> None:
        if self.connected:
            self.endpoint.close()
        self.endpoint = None

    def _on_close(self, reason: str, endpoint) -> None:
        self.endpoint = None
        for deferred in list(self._pending.values()):
            deferred.resolve(None)
        self._pending.clear()

    def _on_message(self, message: Message, endpoint) -> None:
        if message.reply_to is None:
            return
        deferred = self._pending.pop(message.reply_to, None)
        if deferred is not None:
            deferred.resolve(message.payload)

    # ------------------------------------------------------------------
    # The request machinery
    # ------------------------------------------------------------------

    def call(self, kind: MsgKind, payload: Optional[dict] = None,
             timeout_ms: Optional[float] = None) -> dict:
        """Issue one request and run the simulation until its reply."""
        if not self.connected:
            self.connect()
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        self._req_counter += 1
        request = Message(kind=kind, req_id=self._req_counter,
                          origin=self.host_name, user=self.user,
                          payload=payload or {})
        tracer = self.fabric.tracer
        span = None
        if tracer is not None:
            span = tracer.start("tool:%s" % kind.value,
                                host=self.host_name, cat="tool")
            request.trace = span.ctx()
        deferred = Deferred()
        self._pending[request.req_id] = deferred
        self.endpoint.send(
            request,
            extra_delay_ms=self.fabric.tool_send_delay_ms(self.host_name))
        if not self.fabric.run_until_true(lambda: deferred.resolved,
                                          timeout_ms=timeout_ms):
            self._pending.pop(request.req_id, None)
            if span is not None:
                tracer.finish(span, op="tool_call", outcome="timeout")
            raise RequestTimeoutError(kind.value)
        if span is not None:
            tracer.finish(span, op="tool_call",
                          outcome="lost" if deferred.value is None else "ok")
        if deferred.value is None:
            raise PPMError("connection to LPM lost during %s"
                           % (kind.value,))
        return deferred.value

    @staticmethod
    def _expect_ok(result: dict, what: str) -> dict:
        if not result.get("ok"):
            raise PPMError("%s failed: %s"
                           % (what, result.get("error", "unknown error")))
        return result

    # ------------------------------------------------------------------
    # Tool operations
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self._expect_ok(self.call(MsgKind.TOOL_PING), "ping")

    def session_info(self) -> dict:
        return self._expect_ok(self.call(MsgKind.TOOL_SESSION_INFO),
                               "session_info")

    def create_process(self, command: str, host: Optional[str] = None,
                       args=(), program: Optional[dict] = None,
                       parent: Optional[GlobalPid] = None,
                       foreground: bool = True) -> GlobalPid:
        """Create a managed process anywhere in the network; returns its
        ``<host, pid>`` identity."""
        payload = {"command": command, "args": list(args),
                   "program": program,
                   "host": host if host is not None else self.host_name,
                   "foreground": foreground}
        if parent is not None:
            payload["parent"] = [parent.host, parent.pid]
        result = self._expect_ok(self.call(MsgKind.TOOL_CREATE, payload),
                                 "create_process(%s)" % (command,))
        return GlobalPid(result["host"], result["pid"])

    def control(self, gpid: GlobalPid,
                action: Union[ControlAction, str]) -> dict:
        """Deliver a control action to any process of the user's,
        across machine boundaries."""
        action_name = action.value if isinstance(action, ControlAction) \
            else str(action)
        return self._expect_ok(
            self.call(MsgKind.TOOL_CONTROL,
                      {"host": gpid.host, "pid": gpid.pid,
                       "action": action_name}),
            "control(%s, %s)" % (gpid, action_name))

    def stop(self, gpid: GlobalPid) -> dict:
        return self.control(gpid, ControlAction.STOP)

    def cont(self, gpid: GlobalPid) -> dict:
        return self.control(gpid, ControlAction.CONTINUE)

    def foreground(self, gpid: GlobalPid) -> dict:
        return self.control(gpid, ControlAction.FOREGROUND)

    def background(self, gpid: GlobalPid) -> dict:
        return self.control(gpid, ControlAction.BACKGROUND)

    def terminate(self, gpid: GlobalPid) -> dict:
        return self.control(gpid, ControlAction.TERMINATE)

    def kill(self, gpid: GlobalPid) -> dict:
        return self.control(gpid, ControlAction.KILL)

    def locate(self, gpid: GlobalPid) -> dict:
        """Find a process anywhere on the overlay; returns the reply
        payload (``found`` plus the owning host's answer)."""
        return self._expect_ok(
            self.call(MsgKind.TOOL_LOCATE,
                      {"host": gpid.host, "pid": gpid.pid}),
            "locate(%s)" % (gpid,))

    def snapshot(self, prune: bool = True) -> SnapshotForest:
        """The snapshot tool: the genealogical state of the user's
        distributed computation."""
        result = self._expect_ok(self.call(MsgKind.TOOL_SNAPSHOT),
                                 "snapshot")
        forest = SnapshotForest(
            taken_at_ms=self.fabric.now_ms,
            records=[ProcessRecord.from_dict(r)
                     for r in result.get("records", [])],
            missing_hosts=set(result.get("missing", [])))
        return forest.prune_exited_leaves() if prune else forest

    def rstats(self) -> List[ProcessRecord]:
        """The exited-process resource consumption statistics tool."""
        result = self._expect_ok(self.call(MsgKind.TOOL_RSTATS), "rstats")
        return [ProcessRecord.from_dict(r)
                for r in result.get("records", [])]

    def adopt(self, pid: int) -> List[int]:
        """Ask the local LPM to adopt a process and its descendants."""
        result = self._expect_ok(
            self.call(MsgKind.TOOL_ADOPT, {"pid": pid}), "adopt")
        return result["adopted"]

    def set_trace_flags(self, flags: List[str],
                        pid: Optional[int] = None) -> dict:
        """Adjust event-recording granularity, session-wide or per pid."""
        payload = {"flags": list(flags)}
        if pid is not None:
            payload["pid"] = pid
        return self._expect_ok(self.call(MsgKind.TOOL_SET_TRACE, payload),
                               "set_trace_flags")
