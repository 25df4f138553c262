"""Crash recovery and the Crash Coordinator Site (section 5).

"At all times in normal operation, one LPM has the distinguished role of
being the crash coordinator site, CCS. ... The CCS becomes active only
when a failure is detected."  The driving search strategy is the user's
``.recovery`` file: hosts in decreasing priority, assumed to exist on
every machine the user frequents.

The state machine per LPM:

* ``NORMAL`` — nothing wrong, or reconnected after recovery.
* ``SEARCHING`` — a failure was detected; the LPM walks the recovery
  list trying to reach (or become) a CCS.
* ``ACTING_CCS`` — this LPM serves as CCS; if it is *not* the top of the
  recovery list it is a stand-in that probes higher-priority hosts "at a
  low frequency" and relinquishes when one comes up (the network
  partition rule).
* ``ISOLATED`` — no recovery host reachable; the time-to-die interval is
  armed; periodic retries continue, and any authenticated contact
  resumes normal operation.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from ..tracing.events import TraceEventType
from ..unixsim.nameserver import NAME_SERVICE
from .messages import Message, MsgKind

#: Bound on consecutive name-server reassignment attempts per search.
MAX_NS_ATTEMPTS = 5


class RecoveryState(Enum):
    NORMAL = "normal"
    SEARCHING = "searching"
    ACTING_CCS = "acting_ccs"
    ISOLATED = "isolated"


class RecoveryManager:
    """Failure handling for one LPM."""

    def __init__(self, lpm) -> None:
        self.lpm = lpm
        self.state = RecoveryState.NORMAL
        self._die_timer = None
        self._retry_timer = None
        self._probe_timer = None
        self.failures_seen = 0
        self.searches = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def recovery_list(self) -> List[str]:
        return self.lpm.host.fs.read_recovery_file(self.lpm.user)

    @property
    def uses_name_server(self) -> bool:
        return self.lpm.config.ccs_source == "name_server"

    def _trace(self, event_type: TraceEventType, **details) -> None:
        self.lpm._trace(event_type, **details)

    def is_ccs(self) -> bool:
        return self.lpm.ccs_host == self.lpm.name

    def _is_top_of_list(self) -> bool:
        rlist = self.recovery_list
        return bool(rlist) and rlist[0] == self.lpm.name

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def on_connection_lost(self, peer: str, reason: str) -> None:
        """A sibling channel broke abnormally."""
        if not self.lpm.is_running():
            return
        self.failures_seen += 1
        self._trace(TraceEventType.FAILURE_DETECTED, peer=peer,
                    reason=reason)
        if self.is_ccs():
            return  # the coordinator itself just notes the loss
        if peer == self.lpm.ccs_host:
            self._start_search()
        else:
            self._report_to_ccs(lost=peer)

    def _report_to_ccs(self, lost: Optional[str] = None) -> None:
        """'The crash of a host (or a LPM) in the network results in
        LPMs trying to establish connections with the (known) CCS.'"""
        ccs = self.lpm.ccs_host

        def connected(link) -> None:
            if not self.lpm.is_running():
                return
            if link is None:
                self._start_search()
                return
            self.lpm.send_request(
                ccs, MsgKind.CCS_REPORT,
                {"lost": lost, "reporter": self.lpm.name},
                self._on_ccs_ack)

        self.lpm.ensure_sibling(ccs).then(connected)

    def _on_ccs_ack(self, reply: Optional[Message]) -> None:
        if not self.lpm.is_running():
            return
        if reply is None:
            self._start_search()
            return
        new_ccs = reply.payload.get("ccs_host")
        if new_ccs:
            self.lpm.ccs_host = new_ccs
        self._trace(TraceEventType.CCS_CONTACTED, ccs=self.lpm.ccs_host)
        self._resume_normal()

    # ------------------------------------------------------------------
    # The search down the recovery list
    # ------------------------------------------------------------------

    def _start_search(self) -> None:
        if not self.lpm.is_running():
            return
        if self.state is RecoveryState.SEARCHING:
            return
        self.state = RecoveryState.SEARCHING
        self.searches += 1
        if self.uses_name_server:
            self._trace(TraceEventType.CCS_SEARCH,
                        via="name server")
            self._search_via_name_server(blamed=self.lpm.ccs_host,
                                         attempts=0)
            return
        self._trace(TraceEventType.CCS_SEARCH,
                    candidates=self.recovery_list)
        self._try_candidates(list(self.recovery_list))

    # ------------------------------------------------------------------
    # The section 5 name-server alternative
    # ------------------------------------------------------------------

    def _ns_call(self, op: str, extra: dict, on_reply) -> None:
        """One query to the CCS name server; ``on_reply(None)`` when the
        server is unreachable (its single-point-of-failure cost)."""
        config = self.lpm.config
        answered = []

        def established(endpoint) -> None:
            endpoint.on_message = lambda payload, ep: (
                answered.append(1), on_reply(payload), ep.close())

        payload = {"op": op, "user": self.lpm.user}
        payload.update(extra)
        self.lpm.fabric.connect(
            self.lpm.name, config.name_server_host, NAME_SERVICE,
            payload=payload,
            on_established=established,
            on_failed=lambda reason: on_reply(None),
            detect_ms=config.connection_detect_ms)

    def register_with_name_server(self) -> None:
        """Announce this LPM; a higher-priority host's return climbs
        the assignment back up."""
        if not self.uses_name_server:
            return

        def replied(payload) -> None:
            if payload and payload.get("ccs_host"):
                self.lpm.ccs_host = payload["ccs_host"]
                if self.lpm.ccs_host == self.lpm.name and \
                        self.state is RecoveryState.NORMAL:
                    self.state = RecoveryState.ACTING_CCS
                    self._trace(TraceEventType.CCS_ASSUMED,
                                stand_in=False, via="name server")

        self._ns_call("register", {"host": self.lpm.name}, replied)

    def _search_via_name_server(self, blamed: Optional[str],
                                attempts: int) -> None:
        if not self.lpm.is_running():
            return
        if attempts >= MAX_NS_ATTEMPTS:
            self._become_isolated()
            return

        def replied(payload) -> None:
            if not self.lpm.is_running():
                return
            if payload is None or not payload.get("ccs_host"):
                # The name server itself is down or knows nothing.
                self._become_isolated()
                return
            assigned = payload["ccs_host"]
            self.lpm.ccs_host = assigned
            if assigned == self.lpm.name:
                self._assume_ccs()
                return

            def connected(link) -> None:
                if not self.lpm.is_running():
                    return
                if link is None:
                    self._search_via_name_server(blamed=assigned,
                                                 attempts=attempts + 1)
                    return
                self.lpm.send_request(
                    assigned, MsgKind.CCS_REPORT,
                    {"lost": blamed, "reporter": self.lpm.name},
                    lambda reply: self._ns_report_done(reply, assigned,
                                                       attempts))

            self.lpm.ensure_sibling(assigned).then(connected)

        op = "report_down" if blamed else "query"
        self._ns_call(op, {"host": blamed} if blamed else {}, replied)

    def _ns_report_done(self, reply: Optional[Message], assigned: str,
                        attempts: int) -> None:
        if not self.lpm.is_running():
            return
        if reply is None:
            self._search_via_name_server(blamed=assigned,
                                         attempts=attempts + 1)
            return
        self._trace(TraceEventType.CCS_CONTACTED, ccs=self.lpm.ccs_host,
                    via="name server")
        self._resume_normal()

    def _try_candidates(self, remaining: List[str]) -> None:
        if not self.lpm.is_running():
            return
        if not remaining:
            self._become_isolated()
            return
        candidate = remaining[0]
        rest = remaining[1:]
        if candidate == self.lpm.name:
            self._assume_ccs()
            return

        def connected(link) -> None:
            if not self.lpm.is_running():
                return
            if link is None:
                self._try_candidates(rest)
                return
            self.lpm.ccs_host = candidate
            self.lpm.send_request(
                candidate, MsgKind.CCS_REPORT,
                {"lost": None, "reporter": self.lpm.name},
                lambda reply: self._search_report_done(reply, rest))

        self.lpm.ensure_sibling(candidate).then(connected)

    def _search_report_done(self, reply: Optional[Message],
                            rest: List[str]) -> None:
        if not self.lpm.is_running():
            return
        if reply is None:
            self._try_candidates(rest)
            return
        new_ccs = reply.payload.get("ccs_host")
        if new_ccs:
            self.lpm.ccs_host = new_ccs
        self._trace(TraceEventType.CCS_CONTACTED, ccs=self.lpm.ccs_host)
        self._resume_normal()

    def _assume_ccs(self) -> None:
        """This LPM becomes the (possibly stand-in) coordinator."""
        self.lpm.ccs_host = self.lpm.name
        # Under the name server, every assumption keeps probing (a
        # re-query notices when the administrator's assignment climbs
        # back); under .recovery files only a non-top host stands in.
        stand_in = True if self.uses_name_server \
            else not self._is_top_of_list()
        self.state = RecoveryState.ACTING_CCS
        self._cancel_die_timer()
        self._cancel_retry_timer()
        self._trace(TraceEventType.CCS_ASSUMED, stand_in=stand_in)
        if stand_in:
            self._arm_probe_timer()

    # ------------------------------------------------------------------
    # Stand-in CCS probing (the partition rule)
    # ------------------------------------------------------------------

    def _arm_probe_timer(self) -> None:
        self._cancel_probe_timer()
        self._probe_timer = self.lpm.sim.schedule(
            self.lpm.config.ccs_probe_interval_ms, self._probe_higher)

    def _probe_higher(self) -> None:
        """'Those new CCSs that are not at the top of the list keep
        probing, at a low frequency, the hosts higher on the list.
        Whenever such host comes up, they connect to it.'"""
        self._probe_timer = None
        if not self.lpm.is_running() or \
                self.state is not RecoveryState.ACTING_CCS:
            return
        if self.uses_name_server:
            self._probe_name_server()
            return
        higher: List[str] = []
        for host in self.recovery_list:
            if host == self.lpm.name:
                break
            higher.append(host)
        if not higher:
            return
        self._trace(TraceEventType.CCS_PROBE, targets=higher)
        self._probe_candidates(higher)

    def _probe_name_server(self) -> None:
        """The name-server flavour of the low-frequency probe: re-query
        the assignment and relinquish if it moved off us."""
        def replied(payload) -> None:
            if not self.lpm.is_running() or \
                    self.state is not RecoveryState.ACTING_CCS:
                return
            if payload and payload.get("ccs_host") and \
                    payload["ccs_host"] != self.lpm.name:
                self._relinquish_to(payload["ccs_host"])
                return
            self._arm_probe_timer()

        self._trace(TraceEventType.CCS_PROBE, via="name server")
        self._ns_call("query", {}, replied)

    def _probe_candidates(self, remaining: List[str]) -> None:
        if not remaining or not self.lpm.is_running() or \
                self.state is not RecoveryState.ACTING_CCS:
            if self.state is RecoveryState.ACTING_CCS:
                self._arm_probe_timer()
            return
        candidate = remaining[0]
        rest = remaining[1:]

        def connected(link) -> None:
            if not self.lpm.is_running() or \
                    self.state is not RecoveryState.ACTING_CCS:
                return
            if link is None:
                self._probe_candidates(rest)
                return
            self._relinquish_to(candidate)

        self.lpm.ensure_sibling(candidate).then(connected)

    def _relinquish_to(self, new_ccs: str) -> None:
        self._trace(TraceEventType.CCS_RELINQUISHED, to=new_ccs)
        self.lpm.ccs_host = new_ccs
        self._cancel_probe_timer()
        self.state = RecoveryState.NORMAL
        # Tell the new coordinator we exist, and our siblings who the
        # coordinator now is.
        self.lpm.send_request(new_ccs, MsgKind.CCS_REPORT,
                              {"lost": None, "reporter": self.lpm.name},
                              lambda reply: None)
        notice_payload = {"new_ccs": new_ccs}
        for peer in self.lpm.authenticated_siblings():
            if peer == new_ccs:
                continue
            self.lpm.send_request(peer, MsgKind.CCS_REPORT,
                                  dict(notice_payload),
                                  lambda reply: None, use_handler=False)

    # ------------------------------------------------------------------
    # Isolation and the time-to-die interval
    # ------------------------------------------------------------------

    def _become_isolated(self) -> None:
        """'If none of these hosts is available, a time-to-die interval
        exists that tells the LPM when to exit after having terminated
        all of the user's processes in that host.'"""
        if self.state is RecoveryState.ISOLATED:
            self._arm_retry_timer()
            return
        self.state = RecoveryState.ISOLATED
        if self._die_timer is None:
            self._trace(TraceEventType.TIME_TO_DIE_ARMED,
                        interval_ms=self.lpm.config.time_to_die_ms)
            self._die_timer = self.lpm.sim.schedule(
                self.lpm.config.time_to_die_ms, self._time_to_die)
        self._arm_retry_timer()

    def _arm_retry_timer(self) -> None:
        self._cancel_retry_timer()
        self._retry_timer = self.lpm.sim.schedule(
            self.lpm.config.recovery_retry_interval_ms, self._retry)

    def _retry(self) -> None:
        """'A LPM not in contact with a CCS resumes the normal mode of
        operation if it manages to connect to the CCS at any future
        retry.'"""
        self._retry_timer = None
        if not self.lpm.is_running() or \
                self.state is not RecoveryState.ISOLATED:
            return
        self.state = RecoveryState.SEARCHING
        if self.uses_name_server:
            self._search_via_name_server(blamed=None, attempts=0)
        else:
            self._try_candidates(list(self.recovery_list))

    def _time_to_die(self) -> None:
        self._die_timer = None
        if not self.lpm.is_running():
            return
        # Still cut off (isolated, or mid-retry): the interval expired
        # without regaining any recovery host, so shut everything down.
        if self.state in (RecoveryState.NORMAL, RecoveryState.ACTING_CCS):
            return
        self._trace(TraceEventType.TIME_TO_DIE_FIRED)
        kernel = self.lpm.host.kernel
        from .lpm import INFRA_COMMANDS
        for proc in kernel.procs.alive_by_uid(self.lpm.uid):
            if proc.command in INFRA_COMMANDS:
                continue
            kernel.exit(proc.pid, status=128 + 9, term_signal=None)
        self.lpm.shutdown("time-to-die")

    def _resume_normal(self) -> None:
        was_isolated = self._die_timer is not None \
            or self.state is RecoveryState.ISOLATED
        self.state = RecoveryState.NORMAL
        self._cancel_die_timer()
        self._cancel_retry_timer()
        self._cancel_probe_timer()
        if was_isolated:
            self._trace(TraceEventType.RECOVERY_RESUMED)

    def on_contact(self, peer: str) -> None:
        """Any authenticated contact while isolated resumes operation
        ('or gets a communication request from a LPM in contact with a
        valid CCS')."""
        if self.state is RecoveryState.ISOLATED or \
                self._die_timer is not None:
            self._trace(TraceEventType.RECOVERY_RESUMED, via=peer)
            self.state = RecoveryState.NORMAL
            self._cancel_die_timer()
            self._cancel_retry_timer()

    # ------------------------------------------------------------------
    # CCS server side
    # ------------------------------------------------------------------

    def on_ccs_report(self, message: Message) -> None:
        """A sibling reports a failure (or a CCS change notice)."""
        new_ccs = message.payload.get("new_ccs")
        if new_ccs:
            # Notice: adopt the announced coordinator.
            self.lpm.ccs_host = new_ccs
            reply = message.make_reply(MsgKind.CCS_ACK, self.lpm.name,
                                       {"ok": True,
                                        "ccs_host": self.lpm.ccs_host})
            self.lpm._route_send(reply)
            return
        if not self.is_ccs() and self.state is not RecoveryState.ACTING_CCS:
            # We were addressed as CCS: serve as stand-in coordinator.
            self._assume_ccs()
        reply = message.make_reply(MsgKind.CCS_ACK, self.lpm.name,
                                   {"ok": True,
                                    "ccs_host": self.lpm.ccs_host})
        self.lpm._route_send(reply)

    def on_ccs_probe(self, message: Message) -> None:
        reply = message.make_reply(MsgKind.CCS_PROBE_ACK, self.lpm.name,
                                   {"ok": True,
                                    "ccs_host": self.lpm.ccs_host})
        self.lpm._route_send(reply)

    # ------------------------------------------------------------------
    # Timer hygiene
    # ------------------------------------------------------------------

    def _cancel_die_timer(self) -> None:
        if self._die_timer is not None:
            self.lpm.sim.cancel(self._die_timer)
            self._die_timer = None

    def _cancel_retry_timer(self) -> None:
        if self._retry_timer is not None:
            self.lpm.sim.cancel(self._retry_timer)
            self._retry_timer = None

    def _cancel_probe_timer(self) -> None:
        if self._probe_timer is not None:
            self.lpm.sim.cancel(self._probe_timer)
            self._probe_timer = None

    def cancel_timers(self) -> None:
        self._cancel_die_timer()
        self._cancel_retry_timer()
        self._cancel_probe_timer()
