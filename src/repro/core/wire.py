"""Serialisation and size accounting for protocol messages.

The simulator passes message objects by reference, but the protocol is
kept fully serialisable (program images travel as declarative *specs*,
never as live objects) and this module proves it: :func:`encode` /
:func:`decode` round-trip any :class:`Message`, and
:func:`message_size_bytes` is the size the network charges for.
"""

from __future__ import annotations

import json
from typing import Optional

from ..errors import ReproError
from ..ids import BroadcastId
from ..perf import PERF
from .messages import Message, MsgKind

#: Fixed framing overhead per message (headers, lengths, checksums).
HEADER_BYTES = 48


def _broadcast_to_dict(broadcast: Optional[BroadcastId]) -> Optional[dict]:
    if broadcast is None:
        return None
    return {"origin": broadcast.origin, "ts": broadcast.timestamp_ms,
            "seq": broadcast.seq, "sig": broadcast.signature}


def _broadcast_from_dict(data: Optional[dict]) -> Optional[BroadcastId]:
    if data is None:
        return None
    return BroadcastId(origin=data["origin"], timestamp_ms=data["ts"],
                       seq=data["seq"], signature=data["sig"])


def encode(message: Message) -> bytes:
    """Canonical JSON encoding of a message.

    Each message is encoded once where it is sent: the sibling
    transport sizes it (:func:`message_size_bytes`) or a real endpoint
    frames it.  Nothing sizes a tool message, whose host-local stream
    crosses no link.
    """
    PERF.encodes_performed += 1
    fields = {
        "kind": message.kind.value,
        "req_id": message.req_id,
        "origin": message.origin,
        "user": message.user,
        "payload": message.payload,
        "route": message.route,
        "reply_to": message.reply_to,
        "broadcast": _broadcast_to_dict(message.broadcast),
        "final_dest": message.final_dest,
    }
    # The span context is genuinely absent (not null) when tracing is
    # off, so untraced runs produce byte-identical encodings — and
    # therefore identical simulated byte charges — to pre-span builds.
    if message.trace is not None:
        fields["trace"] = message.trace
    # Likewise the lane tag: only shared-circuit traffic carries it, so
    # single-tenant runs keep byte-identical encodings and byte charges.
    if message.lane is not None:
        fields["lane"] = message.lane
    try:
        body = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ReproError(
            "unserialisable payload in %s: %s" % (message.kind, exc)) from exc
    return body.encode("utf-8")


def decode(data: bytes) -> Message:
    """Inverse of :func:`encode`."""
    raw = json.loads(data.decode("utf-8"))
    return Message(kind=MsgKind(raw["kind"]), req_id=raw["req_id"],
                   origin=raw["origin"], user=raw["user"],
                   payload=raw["payload"], route=list(raw["route"]),
                   reply_to=raw["reply_to"],
                   broadcast=_broadcast_from_dict(raw["broadcast"]),
                   final_dest=raw["final_dest"],
                   trace=raw.get("trace"), lane=raw.get("lane"))


def message_size_bytes(message: Message) -> int:
    """The size the network charges when this message crosses a link.

    Only the sibling senders call it (``SiblingTransport.send_on_link``
    and the circuit pool's ``LANE_CLOSE`` notice); a tool stream is a
    zero-link host-local path whose cost is IPC time, not bytes.
    """
    PERF.size_calls += 1
    nbytes = HEADER_BYTES + len(encode(message))
    PERF.bytes_charged += nbytes
    return nbytes
