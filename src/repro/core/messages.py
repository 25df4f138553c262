"""The PPM wire protocol.

Every conversation in the PPM — tool to LPM, LPM to sibling LPM — is a
:class:`Message`.  Replies quote the request id; routed messages carry
the source-destination route ("All data returned to the originator of a
broadcast request includes the message's source-destination route",
section 4); broadcast messages carry the signed timestamp used for
duplicate suppression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..ids import BroadcastId


class MsgKind(Enum):
    """Every message type in the protocol."""

    # Tool -> LPM requests (the subroutine library's vocabulary).
    TOOL_SNAPSHOT = "tool_snapshot"
    TOOL_CONTROL = "tool_control"
    TOOL_CREATE = "tool_create"
    TOOL_ADOPT = "tool_adopt"
    TOOL_RSTATS = "tool_rstats"
    TOOL_SET_TRACE = "tool_set_trace"
    TOOL_SESSION_INFO = "tool_session_info"
    TOOL_PING = "tool_ping"
    TOOL_LOCATE = "tool_locate"
    #: Generic reply to a tool.
    TOOL_REPLY = "tool_reply"

    # Sibling LPM conversations.
    HELLO = "hello"              # channel authentication handshake
    HELLO_ACK = "hello_ack"
    GATHER = "gather"            # recursive subtree snapshot request
    GATHER_REPLY = "gather_reply"
    CONTROL = "control"          # deliver a control action to a process
    CONTROL_ACK = "control_ack"
    CREATE = "create"            # remote process creation
    CREATE_ACK = "create_ack"
    RSTATS = "rstats"            # exited-process statistics gather
    RSTATS_REPLY = "rstats_reply"
    LOCATE = "locate"            # broadcast: who owns this process?
    LOCATE_ACK = "locate_ack"
    #: Crash recovery (section 5).
    CCS_REPORT = "ccs_report"    # an LPM reports to the CCS after failure
    CCS_ACK = "ccs_ack"
    CCS_PROBE = "ccs_probe"      # stand-in CCS probing higher-priority host
    CCS_PROBE_ACK = "ccs_probe_ack"


#: Kinds that always flow tool <-> LPM (used for endpoint sanity checks).
TOOL_KINDS = frozenset({
    MsgKind.TOOL_SNAPSHOT, MsgKind.TOOL_CONTROL, MsgKind.TOOL_CREATE,
    MsgKind.TOOL_ADOPT, MsgKind.TOOL_RSTATS, MsgKind.TOOL_SET_TRACE,
    MsgKind.TOOL_SESSION_INFO, MsgKind.TOOL_PING, MsgKind.TOOL_LOCATE,
    MsgKind.TOOL_REPLY,
})


@dataclass
class Message:
    """One protocol message.

    ``route`` accumulates host names as the message moves through the
    overlay; a reply reverses it.  ``final_dest`` is set on routed
    (multi-hop, non-broadcast) messages so intermediate LPMs know to
    forward rather than consume.
    """

    kind: MsgKind
    req_id: int
    origin: str
    user: str
    payload: dict = field(default_factory=dict)
    route: List[str] = field(default_factory=list)
    reply_to: Optional[int] = None
    broadcast: Optional[BroadcastId] = None
    final_dest: Optional[str] = None
    #: Span context ``[trace_id, span_id]`` when span tracing is on;
    #: omitted from the wire encoding when None so disabled runs stay
    #: byte-identical (see :mod:`repro.perf.spans`).
    trace: Optional[List[int]] = None

    def make_reply(self, kind: MsgKind, sender_host: str,
                   payload: Optional[dict] = None) -> "Message":
        """Build the reply, reversing the recorded route."""
        return Message(kind=kind, req_id=self.req_id, origin=sender_host,
                       user=self.user,
                       payload=payload if payload is not None else {},
                       route=list(reversed(self.route)),
                       reply_to=self.req_id,
                       final_dest=self.origin,
                       trace=self.trace)

    @property
    def is_reply(self) -> bool:
        return self.reply_to is not None

    def __str__(self) -> str:
        return "%s#%d %s->%s" % (self.kind.value, self.req_id, self.origin,
                                 self.final_dest or "*")
