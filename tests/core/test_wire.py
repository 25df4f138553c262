"""Tests for message serialisation."""

import pytest

from repro.errors import ReproError
from repro.ids import BroadcastId
from repro.core.messages import Message, MsgKind
from repro.core.wire import HEADER_BYTES, decode, encode, message_size_bytes


def sample_message(**overrides):
    fields = dict(kind=MsgKind.CONTROL, req_id=42, origin="alpha",
                  user="lfc", payload={"pid": 7, "action": "stop"},
                  route=["alpha", "beta"], final_dest="beta")
    fields.update(overrides)
    return Message(**fields)


def test_roundtrip_plain():
    message = sample_message()
    decoded = decode(encode(message))
    assert decoded.kind is message.kind
    assert decoded.req_id == message.req_id
    assert decoded.payload == message.payload
    assert decoded.route == message.route
    assert decoded.final_dest == message.final_dest
    assert decoded.reply_to is None


def test_roundtrip_with_broadcast_stamp():
    stamp = BroadcastId.make("alpha", 123.5, 9, "secret")
    message = sample_message(broadcast=stamp, kind=MsgKind.GATHER)
    decoded = decode(encode(message))
    assert decoded.broadcast == stamp
    assert decoded.broadcast.verify("secret")
    assert not decoded.broadcast.verify("wrong")


def test_roundtrip_reply():
    request = sample_message()
    reply = request.make_reply(MsgKind.CONTROL_ACK, "beta", {"ok": True})
    decoded = decode(encode(reply))
    assert decoded.reply_to == request.req_id
    assert decoded.route == ["beta", "alpha"]
    assert decoded.final_dest == "alpha"
    assert decoded.is_reply


def _extend(message):
    # Broadcast forwarding appends the next hop to the live message.
    message.route.append("gamma")


def _reassign(message):
    message.route = ["alpha", "beta", "gamma", "delta"]


def _reaim(message):
    # A no-route failure reply rewrites route and final_dest in place.
    message.route = ["beta", "alpha"]
    message.final_dest = "alpha"


@pytest.mark.parametrize("change", [_extend, _reassign, _reaim],
                         ids=["extended", "reassigned", "reaimed"])
def test_route_change_shows_in_a_fresh_encode(change):
    message = sample_message()
    before = encode(message)
    change(message)
    after = encode(message)
    assert after != before
    decoded = decode(after)
    assert decoded.route == message.route
    assert decoded.final_dest == message.final_dest


def test_unserialisable_payload_rejected():
    message = sample_message(payload={"program": object()})
    with pytest.raises(ReproError):
        encode(message)


def test_encode_succeeds_once_a_rejected_payload_is_fixed():
    message = sample_message(payload={"bad": object()})
    with pytest.raises(ReproError):
        encode(message)
    message.payload = {"good": 1}
    assert decode(encode(message)).payload == {"good": 1}


def test_size_includes_header_and_grows_with_payload():
    small = sample_message(payload={})
    big = sample_message(payload={"records": [{"pid": i} for i in range(50)]})
    assert message_size_bytes(small) > HEADER_BYTES
    assert message_size_bytes(big) > message_size_bytes(small)


def test_repeat_encode_gives_identical_bytes_and_size():
    message = sample_message()
    first = encode(message)
    assert encode(message) == first
    assert message_size_bytes(message) == HEADER_BYTES + len(first)


def test_every_kind_value_unique():
    values = [kind.value for kind in MsgKind]
    assert len(values) == len(set(values))
