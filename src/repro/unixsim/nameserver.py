"""A network name server for CCS assignment.

Section 5's closing alternative: "The existence of name servers in the
network could be used to aid in crash recovery.  LPMs would query the
name server for a CCS.  The mechanism based on .recovery files would
not be needed.  In this approach the assignment of the CCS could be
better coordinated by network administrators to avoid possible
bottlenecks."

The daemon keeps, per user, the administrator's priority list and the
current assignment.  LPMs query it (``{op: "query", user}``) and report
unreachable coordinators (``{op: "report_down", user, host}``), which
advances the assignment down the list; when a higher-priority host's
LPM re-registers (``{op: "register", user, host}``) the assignment
climbs back.  The server is, deliberately, a single point of failure —
the trade-off ablation A7 measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ids import NAME_SERVICE
from .process import ProcState


class CcsNameServer:
    """The per-network CCS name server daemon."""

    def __init__(self, host) -> None:
        self.host = host
        self.proc = host.kernel.spawn(0, "ccsnsd",
                                      state=ProcState.SLEEPING)
        #: user -> administrator's priority list.
        self._priority: Dict[str, List[str]] = {}
        #: user -> index into the priority list currently assigned.
        self._assigned: Dict[str, int] = {}
        self.queries = 0
        self.reports = 0
        host.node.listen(NAME_SERVICE, self._accept)

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------

    def administer(self, user: str, priority_hosts: List[str]) -> None:
        """The network administrator's coordination (section 5)."""
        self._priority[user] = list(priority_hosts)
        self._assigned[user] = 0

    def current_ccs(self, user: str) -> Optional[str]:
        hosts = self._priority.get(user)
        if not hosts:
            return None
        return hosts[self._assigned[user] % len(hosts)]

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------

    def _accept(self, endpoint, payload) -> None:
        endpoint.on_message = self._serve
        if isinstance(payload, dict) and payload.get("op"):
            self._serve(payload, endpoint)

    def _serve(self, payload, endpoint) -> None:
        if not isinstance(payload, dict):
            return
        op = payload.get("op")
        user = payload.get("user", "")
        if op == "query":
            self.queries += 1
            self._reply(endpoint, {"ok": True,
                                   "ccs_host": self.current_ccs(user)})
        elif op == "report_down":
            self.reports += 1
            self._advance_past(user, payload.get("host"))
            self._reply(endpoint, {"ok": True,
                                   "ccs_host": self.current_ccs(user)})
        elif op == "register":
            # A host's LPM announces itself; if it ranks higher than the
            # current assignment, the assignment climbs back up.
            self._climb_to(user, payload.get("host"))
            self._reply(endpoint, {"ok": True,
                                   "ccs_host": self.current_ccs(user)})
        else:
            self._reply(endpoint, {"ok": False, "error": "bad op"})

    def _reply(self, endpoint, payload: dict) -> None:
        if endpoint.open:
            endpoint.send(payload, nbytes=96)

    def _advance_past(self, user: str, down_host: Optional[str]) -> None:
        hosts = self._priority.get(user)
        if not hosts or down_host is None:
            return
        if self.current_ccs(user) == down_host:
            self._assigned[user] = (self._assigned[user] + 1) % len(hosts)

    def _climb_to(self, user: str, up_host: Optional[str]) -> None:
        hosts = self._priority.get(user)
        if not hosts or up_host is None or up_host not in hosts:
            return
        candidate = hosts.index(up_host)
        if candidate < self._assigned[user] % len(hosts):
            self._assigned[user] = candidate
