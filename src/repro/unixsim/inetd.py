"""The inet daemon.

LPM creation requests are "directed to the inet daemon, inetd, which
then passes the request to the process manager daemon, pmd, creating it
if necessary" (section 3, Figure 2).  Using inetd "is an alternative to
having a well known communications port" for the pmd itself.

The four numbered steps of Figure 2 are recorded as CREATION_STEP trace
events so the architecture benchmark can regenerate the figure.
"""

from __future__ import annotations

from ..errors import AuthenticationError
from ..ids import INETD_SERVICE, PPM_SERVICE
from ..tracing.events import TraceEventType
from .process import ProcState


class InetDaemon:
    """Per-host inetd; forwards PPM bootstrap requests to the pmd."""

    def __init__(self, host) -> None:
        self.host = host
        self.proc = host.kernel.spawn(0, "inetd", state=ProcState.SLEEPING)
        host.node.listen(INETD_SERVICE, self._accept)
        self.requests_served = 0

    def _accept(self, endpoint, payload) -> None:
        """Step (1): a creation request arrives."""
        if not isinstance(payload, dict) or "service" not in payload:
            self._reply(endpoint, {"ok": False, "error": "bad request"})
            return
        self.requests_served += 1
        self.host.trace(TraceEventType.CREATION_STEP, step=1,
                        actor="inetd", detail="request received",
                        user=payload.get("user", ""))
        if payload["service"] != PPM_SERVICE:
            self._reply(endpoint, {
                "ok": False,
                "error": "unknown service %r" % (payload["service"],)})
            return
        # Step (2): pass the request to the pmd, creating it if necessary.
        delay = self.host.cpu_cost(self.host.world.cost_model.pmd_step_ms)
        self.host.sim.schedule(delay, self._forward_to_pmd, endpoint,
                               payload)

    def _forward_to_pmd(self, endpoint, payload) -> None:
        if not self.host.up:
            return
        pmd_created = self.host.pmd_daemon is None
        pmd = self.host.ensure_pmd()
        self.host.trace(TraceEventType.CREATION_STEP, step=2, actor="inetd",
                        detail="forwarded to pmd%s"
                               % (" (created)" if pmd_created else ""),
                        user=payload.get("user", ""))
        try:
            result = pmd.get_or_create_lpm(
                user=payload.get("user", ""),
                origin_host=payload.get("origin_host", self.host.name),
                origin_user=payload.get("origin_user",
                                        payload.get("user", "")))
        except AuthenticationError as exc:
            self._reply(endpoint, {"ok": False, "error": str(exc)})
            return
        # Step (4) happens when the pmd's work completes.
        result.then(lambda reply: self._finish(endpoint, reply))

    def _finish(self, endpoint, reply) -> None:
        if reply.get("ok"):
            self.host.trace(TraceEventType.CREATION_STEP, step=4,
                            actor="pmd", detail="accept address returned",
                            user=reply.get("user", ""))
        self._reply(endpoint, reply)

    def _reply(self, endpoint, reply) -> None:
        if endpoint.open:
            endpoint.send(reply, nbytes=160)
