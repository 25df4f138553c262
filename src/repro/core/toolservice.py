"""The tool socket's server side: the subroutine library's counterpart.

Section 7's tools (snapshot, rstats, process control, adoption, trace
flags, the command interpreter) all talk to their LPM over a local tool
stream; this module implements the LPM end of every tool verb.  It is a
pure protocol adapter: each handler validates the request, delegates to
the LPM's process table, gather engine, or request channel, and writes
one TOOL_REPLY back at the tool-IPC cost.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConnectionClosedError, ReproError
from ..ids import GlobalPid
from ..tracing.events import TraceEventType
from ..unixsim.process import trace_flags_from_names
from .messages import Message, MsgKind
from .wire import message_size_bytes


class ToolService:
    """Dispatches tool requests arriving on one LPM's tool streams."""

    def __init__(self, lpm) -> None:
        self.lpm = lpm

    @staticmethod
    def _trace_ctx(message: Message):
        """The serve span's context, for parenting downstream spans."""
        span = getattr(message, "_span", None)
        return None if span is None else span.ctx()

    def on_message(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        if not lpm.is_running():
            return
        tracer = lpm.sim.tracer
        if tracer is not None:
            # The serve span rides the request object (messages travel
            # by reference in-sim) so ``reply`` can close it no matter
            # which asynchronous path produced the answer.
            message._span = tracer.start(
                "serve:%s" % message.kind.value, host=lpm.name,
                parent=message.trace, cat="serve")
        lpm._trace(TraceEventType.TOOL_REQUEST, kind=message.kind.value)
        handler = getattr(self, "_tool_" + message.kind.value, None)
        if handler is None:
            self.reply(endpoint, message,
                       {"ok": False, "error": "unknown request"})
            return
        handler(message, endpoint)

    def reply(self, endpoint, request: Message, payload: dict) -> None:
        lpm = self.lpm
        tracer = lpm.sim.tracer
        if tracer is not None:
            span = getattr(request, "_span", None)
            if span is not None and span.end_ms is None:
                tracer.finish(span, ok=bool(payload.get("ok")))
        if not endpoint.open:
            return
        reply = Message(kind=MsgKind.TOOL_REPLY,
                        req_id=request.req_id, origin=lpm.name,
                        user=lpm.user, payload=payload,
                        reply_to=request.req_id,
                        trace=request.trace)
        try:
            endpoint.send(reply, nbytes=message_size_bytes(reply),
                          extra_delay_ms=lpm._cpu(lpm.cost.tool_ipc_ms))
        except ConnectionClosedError:
            pass

    # ------------------------------------------------------------------
    # The section 7 tool verbs
    # ------------------------------------------------------------------

    def _tool_tool_ping(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        self.reply(endpoint, message,
                   {"ok": True, "host": lpm.name,
                    "time_ms": lpm.sim.now_ms})

    def _tool_tool_session_info(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        routes = lpm.router.cache
        self.reply(endpoint, message, {
            "ok": True,
            "host": lpm.name,
            "user": lpm.user,
            "ccs_host": lpm.ccs_host,
            "siblings": lpm.authenticated_siblings(),
            "routes": {dest: routes.route_to(dest)
                       for dest in routes.destinations()},
            "endpoints": lpm.describe_endpoints(),
            "recovery_state": lpm.recovery.state.value,
            "handler_stats": {"spawned": lpm.pool.spawned,
                              "reused": lpm.pool.reused,
                              "peak_busy": lpm.pool.peak_busy},
            "local_pids": sorted(lpm.records),
        })

    def _tool_tool_locate(self, message: Message, endpoint) -> None:
        """Resolve ``<host, pid>`` over the overlay (the LOCATE verb
        exposed to tools; probes and floods per the session policy)."""
        lpm = self.lpm
        host = message.payload.get("host", lpm.name)
        pid = message.payload.get("pid")

        def on_result(reply) -> None:
            if reply is not None and reply.payload.get("ok"):
                answer = {"ok": True, "found": True,
                          "host": reply.payload.get("host", host),
                          "pid": pid}
                if "state" in reply.payload:
                    answer["state"] = reply.payload["state"]
            else:
                answer = {"ok": True, "found": False,
                          "host": host, "pid": pid}
            self.reply(endpoint, message, answer)

        if host == lpm.name:
            # The named host is us: answer authoritatively, no traffic.
            found = pid in lpm.records
            answer = {"ok": True, "found": found, "host": host,
                      "pid": pid}
            if found:
                answer["state"] = lpm.records[pid].state
            self.reply(endpoint, message, answer)
            return
        lpm.locate(host, pid, on_result,
                   trace_parent=self._trace_ctx(message))

    def _tool_tool_snapshot(self, message: Message, endpoint) -> None:
        self.lpm.gather.start(
            "snapshot",
            lambda result: self.reply(endpoint, message, result),
            trace_parent=self._trace_ctx(message))

    def _tool_tool_rstats(self, message: Message, endpoint) -> None:
        self.lpm.gather.start(
            "rstats",
            lambda result: self.reply(endpoint, message, result),
            trace_parent=self._trace_ctx(message))

    def _tool_tool_create(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        payload = message.payload
        target = payload.get("host", lpm.name)
        if target == lpm.name:
            def created() -> None:
                parent = payload.get("parent")
                parent_gpid = GlobalPid(parent[0], parent[1]) \
                    if parent else None
                try:
                    proc = lpm.create_local_process(
                        payload["command"], tuple(payload.get("args", ())),
                        payload.get("program"), parent=parent_gpid,
                        foreground=payload.get("foreground", True))
                except ReproError as exc:
                    self.reply(endpoint, message,
                               {"ok": False, "error": str(exc)})
                    return
                self.reply(endpoint, message,
                           {"ok": True, "host": lpm.name,
                            "pid": proc.pid})

            cost = lpm._cpu(lpm.cost.fork_ms + lpm.cost.exec_ms
                            + lpm.cost.adopt_ms)
            lpm.sim.schedule(cost, created)
            return

        def remote_ready(link) -> None:
            if link is None:
                self.reply(endpoint, message,
                           {"ok": False,
                            "error": "cannot reach %s" % (target,)})
                return
            lpm.send_request(
                target, MsgKind.CREATE,
                {"command": payload["command"],
                 "args": list(payload.get("args", ())),
                 "program": payload.get("program"),
                 "parent": payload.get("parent"),
                 "foreground": payload.get("foreground", True)},
                lambda reply: self.reply(
                    endpoint, message,
                    reply.payload if reply is not None else
                    {"ok": False, "error": "no response from %s"
                                           % (target,)}),
                trace_parent=self._trace_ctx(message))

        lpm.ensure_sibling(target).then(remote_ready)

    def _tool_tool_control(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        payload = message.payload
        target_host = payload["host"]
        pid = payload["pid"]
        action = payload["action"]
        if target_host == lpm.name:
            def acted() -> None:
                self.reply(endpoint, message,
                           lpm._apply_control(pid, action))

            lpm.sim.schedule(lpm._cpu(lpm.cost.signal_ms), acted)
            return

        def send_control(allow_retry: bool = True) -> None:
            def on_reply(reply) -> None:
                if reply is None:
                    self.reply(endpoint, message,
                               {"ok": False,
                                "error": "no response from %s"
                                         % (target_host,)})
                    return
                error = reply.payload.get("error", "")
                if not reply.payload.get("ok") and "no route" in error \
                        and allow_retry:
                    # A stale cached route: forget it and fail over to
                    # a direct channel, then retry once.
                    lpm.router.cache.forget(target_host)

                    def retried(link) -> None:
                        if link is None:
                            self.reply(endpoint, message, reply.payload)
                        else:
                            send_control(allow_retry=False)

                    lpm.ensure_sibling(target_host).then(retried)
                    return
                self.reply(endpoint, message, reply.payload)

            lpm.send_request(target_host, MsgKind.CONTROL,
                             {"pid": pid, "action": action}, on_reply,
                             trace_parent=self._trace_ctx(message))

        if target_host in lpm.siblings or \
                lpm.router.cache.route_to(target_host) is not None:
            send_control()
            return

        # Last resort: locate the process by broadcast, learn the route
        # from the reply, then deliver the action.
        def located(found: Optional[Message]) -> None:
            if found is None:
                # Try a direct channel before giving up (the process may
                # be on a host we simply never talked to).
                def fallback(link) -> None:
                    if link is None:
                        self.reply(endpoint, message,
                                   {"ok": False,
                                    "error": "cannot locate %s on %s"
                                             % (pid, target_host)})
                    else:
                        send_control()

                lpm.ensure_sibling(target_host).then(fallback)
                return
            send_control()

        lpm.locate(target_host, pid, located,
                   trace_parent=self._trace_ctx(message))

    def _tool_tool_adopt(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        payload = message.payload
        target_host = payload.get("host", lpm.name)
        if target_host != lpm.name:
            self.reply(endpoint, message,
                       {"ok": False,
                        "error": "adoption is a local operation"})
            return

        def adopted() -> None:
            try:
                pids = lpm.adopt_process(payload["pid"])
            except ReproError as exc:
                self.reply(endpoint, message,
                           {"ok": False, "error": "%s: %s"
                            % (type(exc).__name__, exc)})
                return
            self.reply(endpoint, message, {"ok": True, "adopted": pids})

        lpm.sim.schedule(lpm._cpu(lpm.cost.adopt_ms), adopted)

    def _tool_tool_set_trace(self, message: Message, endpoint) -> None:
        lpm = self.lpm
        payload = message.payload
        try:
            flags = trace_flags_from_names(payload.get("flags", []))
        except KeyError as exc:
            self.reply(endpoint, message,
                       {"ok": False,
                        "error": "unknown trace flag %s" % (exc,)})
            return
        pid = payload.get("pid")
        if pid is None:
            # Session default for future adoptions on this LPM.
            lpm.trace_flags = flags
            self.reply(endpoint, message, {"ok": True, "scope": "lpm"})
            return
        try:
            lpm.host.kernel.set_trace_flags(lpm.uid, pid, flags)
        except ReproError as exc:
            self.reply(endpoint, message,
                       {"ok": False, "error": str(exc)})
            return
        self.reply(endpoint, message, {"ok": True, "scope": pid})
