"""Framing unit tests — especially torn reads, the edge the simulator
never exercises."""

import pytest

from repro.core.messages import Message, MsgKind
from repro.perf import PERF
from repro.realnet.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FramingError,
    encode_frame,
)


def sample_message(req_id=1):
    return Message(kind=MsgKind.TOOL_PING, req_id=req_id, origin="alpha",
                   user="lfc", payload={"n": req_id})


def test_message_round_trip():
    frame = encode_frame(sample_message())
    (decoded,) = FrameDecoder().feed(frame)
    assert isinstance(decoded, Message)
    assert decoded.kind is MsgKind.TOOL_PING
    assert decoded.payload == {"n": 1}


def test_json_round_trip():
    frame = encode_frame({"connect": "inetd", "src": "alpha"})
    (decoded,) = FrameDecoder().feed(frame)
    assert decoded == {"connect": "inetd", "src": "alpha"}


def test_torn_reads_reassemble_byte_by_byte():
    """A frame delivered one byte at a time decodes exactly once."""
    frame = encode_frame(sample_message(7))
    decoder = FrameDecoder()
    frames = []
    for offset in range(len(frame)):
        frames.extend(decoder.feed(frame[offset:offset + 1]))
    assert len(frames) == 1
    assert frames[0].req_id == 7
    assert decoder.pending_bytes == 0


def test_torn_read_across_frame_boundary():
    """Two frames split mid-length-prefix of the second."""
    first = encode_frame(sample_message(1))
    second = encode_frame(sample_message(2))
    blob = first + second
    split = len(first) + 2  # two bytes into the second length prefix
    decoder = FrameDecoder()
    got = decoder.feed(blob[:split])
    assert [m.req_id for m in got] == [1]
    assert decoder.pending_bytes == 2
    got = decoder.feed(blob[split:])
    assert [m.req_id for m in got] == [2]
    assert decoder.pending_bytes == 0


def test_partial_reads_are_counted():
    PERF.reset()
    frame = encode_frame(sample_message())
    decoder = FrameDecoder()
    decoder.feed(frame[:3])
    decoder.feed(frame[3:])
    assert PERF.real_partial_reads == 1
    assert PERF.real_frames_received == 1


def test_many_frames_in_one_read():
    blob = b"".join(encode_frame(sample_message(i)) for i in range(5))
    frames = FrameDecoder().feed(blob)
    assert [m.req_id for m in frames] == [0, 1, 2, 3, 4]


def test_oversized_frame_rejected():
    bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"M"
    with pytest.raises(FramingError):
        FrameDecoder().feed(bogus)


def test_unknown_tag_rejected():
    frame = (1).to_bytes(4, "big") + b"X" + b"?"
    with pytest.raises(FramingError):
        FrameDecoder().feed(frame)


@pytest.mark.parametrize("tagged_body", [
    b"M{not json",                     # JSONDecodeError
    b"J\xff\xfe",                      # UnicodeDecodeError
    b'M{"kind":"tool_ping"}',          # KeyError
    b'M{"kind":"no_such_kind"}',       # ValueError
    b"M[1, 2]",                        # TypeError
    b"J" + b"[" * 100_000 + b"]" * 100_000,  # RecursionError
], ids=["not-json", "not-utf8", "missing-field", "unknown-kind",
        "not-an-object", "too-deep"])
def test_undecodable_body_is_a_framing_error(tagged_body):
    frame = (len(tagged_body) - 1).to_bytes(4, "big") + tagged_body
    with pytest.raises(FramingError, match="bad body"):
        FrameDecoder().feed(frame)


def test_torn_big_frame_is_parsed_once_when_whole():
    """A frame many reads long is only appended to until it is whole;
    ``pending_bytes`` counts what is held, and the frame after it in
    the last read comes out too."""
    big = encode_frame({"blob": "x" * (4 * 65536)})
    blob = big + encode_frame(sample_message(9))
    decoder = FrameDecoder()
    got = []
    cut = 65536
    for start in range(0, len(big) - 1, cut):
        stop = min(start + cut, len(big) - 1)
        got.extend(decoder.feed(blob[start:stop]))
        assert decoder.pending_bytes == stop
    got.extend(decoder.feed(blob[len(big) - 1:]))
    assert got[0] == {"blob": "x" * (4 * 65536)}
    assert got[1].req_id == 9
    assert decoder.pending_bytes == 0
