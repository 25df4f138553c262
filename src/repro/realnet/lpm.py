"""The real LPM: one user's process manager on one real host.

Speaks the same :class:`~repro.core.messages.Message` protocol the
simulated LPM speaks — the same tool verbs, the same HELLO/HELLO_ACK
channel authentication, the same LOCATE/GATHER sibling conversations —
but over real TCP endpoints, and its process table is a
:class:`repro.localos.RealBackend`: creation is ``subprocess``,
control is real signals, genealogy comes from ``/proc``.

Scope relative to :class:`repro.core.lpm.LocalProcessManager`: sibling
links are dialled directly to the named host (no multi-hop forwarding
or route caches — the real transport is an actual internetwork that
routes for us), there is no retransmission layer (TCP is reliable),
and gathers are one level deep over the host's authenticated siblings.
The administrative semantics the paper cares about — create, control,
locate, snapshot, rstats across machine boundaries, channel
authentication at creation time — are all live.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, Optional

from ..core.control import ControlAction
from ..core.messages import Message, MsgKind
from ..errors import NoSuchProcessError, PPMError
from ..ids import INETD_SERVICE, PPM_SERVICE, GlobalPid
from ..localos import RealBackend
from ..localos.procfs import ORPHAN_MARKER
from ..util import Deferred

#: Default program for a created process with no explicit argv: a
#: quiet sleeper the control verbs can push around.
_DEFAULT_SLEEP_S = 60


def _argv_for(payload: dict) -> List[str]:
    """The real argv for a tool CREATE request.

    ``program["argv"]`` is used verbatim when given; otherwise the
    command becomes a named sleeper (``program["run_ms"]`` bounds its
    life), which is enough for the managed-process semantics — the
    PPM administers processes, it does not care what they compute.
    """
    program = payload.get("program") or {}
    if not isinstance(program, dict):
        program = {}
    if program.get("argv"):
        return [str(part) for part in program["argv"]]
    duration_ms = program.get("duration_ms", program.get("run_ms"))
    run_s = _DEFAULT_SLEEP_S if duration_ms is None \
        else float(duration_ms) / 1000.0
    # The marker comment rides the argv (visible in /proc/<pid>/cmdline)
    # so a doctor orphan scan can recognise PPM children whose serve
    # process died — see repro.localos.procfs.find_marked_orphans.
    return [sys.executable, "-c",
            "import time; time.sleep(%f)  # %s" % (run_s, ORPHAN_MARKER)]


class RealLpm:
    """One user's LPM on one serve process."""

    def __init__(self, fabric, node, user: str, token: str) -> None:
        self.fabric = fabric
        self.node = node
        self.name = node.host_name
        self.user = user
        self.token = token
        self.running = True
        self.secret = os.urandom(8).hex()
        self.ccs_host = self.name
        self.backend = RealBackend(host_name=self.name)
        self.accept_service = "lpm:%s:%s" % (user, token[:8])
        node.listen(self.accept_service, self._accept)
        #: peer host -> authenticated sibling endpoint.
        self.siblings: Dict[str, object] = {}
        self._pending_links: Dict[str, Deferred] = {}
        #: req_id -> (on_reply, timer) for outstanding sibling requests.
        self._pending: Dict[int, tuple] = {}
        self._req_counter = 0
        self.tools: List = []

    # ------------------------------------------------------------------
    # Accepting connections (Figure 4's accept socket)
    # ------------------------------------------------------------------

    def _accept(self, endpoint, payload) -> None:
        payload = payload or {}
        role = payload.get("role")
        if role == "tool":
            self.tools.append(endpoint)
            endpoint.on_message = self._tool_on_message
            endpoint.on_close = self._tool_on_close
            return
        if role == "sibling":
            self._accept_sibling(endpoint, payload)
            return
        endpoint.close()

    def _accept_sibling(self, endpoint, payload) -> None:
        """Authenticate a sibling channel and acknowledge it."""
        # Channel authentication at channel-creation time (section 3):
        # the pmd-issued token proves the trusted introduction.
        if payload.get("token") != self.token or \
                payload.get("user") != self.user:
            endpoint.close()
            return
        peer = payload.get("from_host", endpoint.peer_name)
        self._register_sibling(peer, endpoint)
        ack = Message(kind=MsgKind.HELLO_ACK,
                      req_id=self._next_req_id(),
                      origin=self.name, user=self.user,
                      payload={"secret": self.secret,
                               "ccs_host": self.ccs_host,
                               "known": sorted(self.siblings)})
        endpoint.send(ack)

    def _register_sibling(self, peer: str, endpoint) -> None:
        old = self.siblings.get(peer)
        if old is not None and old.open and old is not endpoint:
            old.close()
        self.siblings[peer] = endpoint
        endpoint.on_message = self._sibling_on_message
        endpoint.on_close = self._sibling_on_close

    def _next_req_id(self) -> int:
        self._req_counter += 1
        return self._req_counter

    # ------------------------------------------------------------------
    # Sibling links on demand (Figure 2 bootstrap over real TCP)
    # ------------------------------------------------------------------

    def ensure_sibling(self, peer: str) -> Deferred:
        done = Deferred()
        if peer == self.name:
            done.resolve(None)
            return done
        existing = self.siblings.get(peer)
        if existing is not None and existing.open:
            done.resolve(existing)
            return done
        if peer in self._pending_links:
            return self._pending_links[peer]
        self._pending_links[peer] = done
        done.then(lambda _result: self._pending_links.pop(peer, None))

        def bootstrap_replied(payload, endpoint) -> None:
            endpoint.close()
            if not isinstance(payload, dict) or not payload.get("ok"):
                done.resolve(None)
                return
            self._open_sibling_channel(peer, payload, done)

        def bootstrap_established(endpoint) -> None:
            endpoint.on_message = bootstrap_replied
            endpoint.on_close = lambda reason, ep: done.resolve(None)

        self.fabric.connect(
            self.name, peer, INETD_SERVICE,
            payload={"service": PPM_SERVICE, "user": self.user,
                     "origin_host": self.name, "origin_user": self.user},
            on_established=bootstrap_established,
            on_failed=lambda reason: done.resolve(None))
        return done

    def _open_sibling_channel(self, peer: str, bootstrap: dict,
                              done: Deferred) -> None:
        hello = {"role": "sibling", "user": self.user,
                 "from_host": self.name, "token": bootstrap["token"],
                 "secret": self.secret, "ccs_host": self.ccs_host}

        def established(endpoint) -> None:
            self._register_sibling(peer, endpoint)
            endpoint.context = {"await_ack": done}

        self.fabric.connect(
            self.name, peer, bootstrap["accept_service"], payload=hello,
            on_established=established,
            on_failed=lambda reason: done.resolve(None))

    # ------------------------------------------------------------------
    # Sibling conversation
    # ------------------------------------------------------------------

    def _sibling_on_message(self, message, endpoint) -> None:
        if not isinstance(message, Message) or not self.running:
            return
        kind = message.kind
        if kind is MsgKind.HELLO_ACK:
            context = endpoint.context or {}
            waiter = context.get("await_ack")
            if waiter is not None:
                waiter.resolve(endpoint)
            return
        if message.is_reply:
            entry = self._pending.pop(message.reply_to, None)
            if entry is not None:
                on_reply, timer = entry
                self.fabric.cancel(timer)
                on_reply(message)
            return
        handler = {
            MsgKind.CREATE: self._serve_create,
            MsgKind.CONTROL: self._serve_control,
            MsgKind.LOCATE: self._serve_locate,
            MsgKind.GATHER: self._serve_gather,
            MsgKind.RSTATS: self._serve_rstats,
        }.get(kind)
        if handler is not None:
            handler(message, endpoint)

    def _sibling_on_close(self, reason: str, endpoint) -> None:
        # A channel refused before its HELLO_ACK must still fail the
        # pending ensure_sibling (idempotent if already resolved).
        context = getattr(endpoint, "context", None) or {}
        waiter = context.get("await_ack")
        if waiter is not None:
            waiter.resolve(None)
        for peer, known in list(self.siblings.items()):
            if known is endpoint:
                del self.siblings[peer]

    def _request(self, peer: str, kind: MsgKind, payload: dict,
                 on_reply: Callable[[Optional[Message]], None],
                 timeout_ms: float = 15_000.0) -> None:
        """One request to a sibling; ``on_reply(None)`` on timeout or
        when no link can be built."""
        def with_link(endpoint) -> None:
            if endpoint is None or not endpoint.open:
                on_reply(None)
                return
            req_id = self._next_req_id()
            message = Message(kind=kind, req_id=req_id, origin=self.name,
                              user=self.user, payload=payload)
            timer = self.fabric.schedule(timeout_ms, self._request_timeout,
                                         req_id)
            self._pending[req_id] = (on_reply, timer)
            endpoint.send(message)

        self.ensure_sibling(peer).then(with_link)

    def _request_timeout(self, req_id: int) -> None:
        entry = self._pending.pop(req_id, None)
        if entry is not None:
            entry[0](None)

    def _reply_on_link(self, endpoint, request: Message, kind: MsgKind,
                       payload: dict) -> None:
        reply = request.make_reply(kind, self.name, payload)
        if endpoint.open:
            endpoint.send(reply)

    # -- serving sibling requests ---------------------------------------

    def _serve_create(self, message: Message, endpoint) -> None:
        result = self._create_local(message.payload)
        self._reply_on_link(endpoint, message, MsgKind.CREATE_ACK, result)

    def _serve_control(self, message: Message, endpoint) -> None:
        result = self._control_local(message.payload)
        self._reply_on_link(endpoint, message, MsgKind.CONTROL_ACK, result)

    def _serve_locate(self, message: Message, endpoint) -> None:
        self._reply_on_link(endpoint, message, MsgKind.LOCATE_ACK,
                            self._locate_local(message.payload))

    def _serve_gather(self, message: Message, endpoint) -> None:
        self._reply_on_link(
            endpoint, message, MsgKind.GATHER_REPLY,
            {"ok": True, "records": self._local_records("snapshot")})

    def _serve_rstats(self, message: Message, endpoint) -> None:
        self._reply_on_link(
            endpoint, message, MsgKind.RSTATS_REPLY,
            {"ok": True, "records": self._local_records("rstats")})

    # ------------------------------------------------------------------
    # Local process operations (the localos backend)
    # ------------------------------------------------------------------

    def _create_local(self, payload: dict) -> dict:
        parent = payload.get("parent")
        gpid = self.backend.spawn(
            _argv_for(payload), name=payload.get("command"),
            parent=GlobalPid(parent[0], parent[1]) if parent else None)
        return {"ok": True, "host": gpid.host, "pid": gpid.pid}

    def _control_local(self, payload: dict) -> dict:
        gpid = GlobalPid(payload["host"], payload["pid"])
        try:
            action = ControlAction(payload["action"])
            self.backend.control(gpid, action)
        except (ValueError, NoSuchProcessError, PPMError) as exc:
            return {"ok": False, "error": str(exc),
                    "host": gpid.host, "pid": gpid.pid}
        return {"ok": True, "host": gpid.host, "pid": gpid.pid,
                "action": payload["action"],
                "state": self.backend.state_of(gpid)}

    def _locate_local(self, payload: dict) -> dict:
        pid = payload.get("pid")
        found = payload.get("host") == self.name and \
            isinstance(pid, int) and self.backend.manages(pid)
        answer = {"ok": found, "host": self.name, "pid": pid}
        if found:
            answer["state"] = self.backend.state_of(
                GlobalPid(self.name, pid))
        return answer

    def _local_records(self, what: str) -> List[dict]:
        if what == "rstats":
            records = self.backend.rstats()
        else:
            records = list(
                self.backend.snapshot(prune=False).records.values())
        return [record.to_dict() for record in records]

    # ------------------------------------------------------------------
    # Tool service
    # ------------------------------------------------------------------

    def _tool_on_message(self, message, endpoint) -> None:
        if not isinstance(message, Message) or not self.running:
            return
        tracer = self.fabric.tracer
        if tracer is not None:
            message._span = tracer.start(
                "serve:%s" % message.kind.value, host=self.name,
                parent=message.trace, cat="serve")
        handler = getattr(self, "_tool_" + message.kind.value, None)
        if handler is None:
            self._tool_reply(endpoint, message,
                             {"ok": False, "error": "unknown request"})
            return
        handler(message, endpoint)

    def _tool_on_close(self, reason: str, endpoint) -> None:
        if endpoint in self.tools:
            self.tools.remove(endpoint)

    def _tool_reply(self, endpoint, request: Message,
                    payload: dict) -> None:
        tracer = self.fabric.tracer
        if tracer is not None:
            span = getattr(request, "_span", None)
            if span is not None and span.end_ms is None:
                tracer.finish(span, ok=bool(payload.get("ok")))
        if not endpoint.open:
            return
        reply = Message(kind=MsgKind.TOOL_REPLY, req_id=request.req_id,
                        origin=self.name, user=self.user, payload=payload,
                        reply_to=request.req_id, trace=request.trace)
        endpoint.send(reply)

    # -- the tool verbs --------------------------------------------------

    def _tool_tool_ping(self, message: Message, endpoint) -> None:
        self._tool_reply(endpoint, message,
                         {"ok": True, "host": self.name,
                          "time_ms": self.fabric.now_ms})

    def _tool_tool_session_info(self, message: Message, endpoint) -> None:
        self._tool_reply(endpoint, message, {
            "ok": True,
            "host": self.name,
            "user": self.user,
            "ccs_host": self.ccs_host,
            "siblings": sorted(peer for peer, link in
                               self.siblings.items() if link.open),
            "endpoints": {"accept": self.accept_service,
                          "tools": len(self.tools)},
            "recovery_state": "normal",
            "local_pids": self.backend.managed_pids(),
        })

    def _tool_tool_create(self, message: Message, endpoint) -> None:
        target = message.payload.get("host", self.name)
        if target == self.name:
            self._tool_reply(endpoint, message,
                             self._create_local(message.payload))
            return

        def on_ack(reply: Optional[Message]) -> None:
            self._tool_reply(endpoint, message,
                             reply.payload if reply is not None else
                             {"ok": False,
                              "error": "create on %s failed" % (target,)})

        self._request(target, MsgKind.CREATE, dict(message.payload),
                      on_ack)

    def _tool_tool_control(self, message: Message, endpoint) -> None:
        target = message.payload.get("host", self.name)
        if target == self.name:
            self._tool_reply(endpoint, message,
                             self._control_local(message.payload))
            return

        def on_ack(reply: Optional[Message]) -> None:
            self._tool_reply(endpoint, message,
                             reply.payload if reply is not None else
                             {"ok": False,
                              "error": "control on %s failed" % (target,)})

        self._request(target, MsgKind.CONTROL, dict(message.payload),
                      on_ack)

    def _tool_tool_locate(self, message: Message, endpoint) -> None:
        target = message.payload.get("host", self.name)
        pid = message.payload.get("pid")
        if target == self.name:
            local = self._locate_local(message.payload)
            answer = {"ok": True, "found": bool(local["ok"]),
                      "host": target, "pid": pid}
            if "state" in local:
                answer["state"] = local["state"]
            self._tool_reply(endpoint, message, answer)
            return

        def on_ack(reply: Optional[Message]) -> None:
            if reply is not None and reply.payload.get("ok"):
                answer = {"ok": True, "found": True,
                          "host": reply.payload.get("host", target),
                          "pid": pid}
                if "state" in reply.payload:
                    answer["state"] = reply.payload["state"]
            else:
                answer = {"ok": True, "found": False, "host": target,
                          "pid": pid}
            self._tool_reply(endpoint, message, answer)

        self._request(target, MsgKind.LOCATE,
                      {"host": target, "pid": pid}, on_ack)

    def _tool_tool_snapshot(self, message: Message, endpoint) -> None:
        self._gather("snapshot", message, endpoint)

    def _tool_tool_rstats(self, message: Message, endpoint) -> None:
        self._gather("rstats", message, endpoint)

    def _gather(self, what: str, message: Message, endpoint) -> None:
        """One-level gather: local records plus every open sibling."""
        merged = self._local_records(what)
        peers = sorted(peer for peer, link in self.siblings.items()
                       if link.open)
        missing: List[str] = []
        outstanding = {"n": len(peers)}

        def finish() -> None:
            self._tool_reply(endpoint, message,
                             {"ok": True, "records": merged,
                              "missing": missing})

        if not peers:
            finish()
            return

        def on_peer_reply(peer: str):
            def handle(reply: Optional[Message]) -> None:
                if reply is not None and reply.payload.get("ok"):
                    merged.extend(reply.payload.get("records", []))
                else:
                    missing.append(peer)
                outstanding["n"] -= 1
                if outstanding["n"] == 0:
                    finish()
            return handle

        kind = MsgKind.RSTATS if what == "rstats" else MsgKind.GATHER
        for peer in peers:
            self._request(peer, kind, {"what": what},
                          on_peer_reply(peer))

    # ------------------------------------------------------------------
    # Shutdown (the orphaned-listener cleanup lives here)
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Kill managed processes, close every channel, and unlisten
        the accept service so nothing dials a dead LPM."""
        if not self.running:
            return
        self.running = False
        self.node.unlisten(self.accept_service)
        for entry in self._pending.values():
            self.fabric.cancel(entry[1])
        self._pending.clear()
        for endpoint in list(self.tools):
            endpoint.close()
        self.tools = []
        for endpoint in list(self.siblings.values()):
            endpoint.close()
        self.siblings.clear()
        self.backend.shutdown()
