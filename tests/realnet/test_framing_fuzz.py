"""Differential fuzz of ``FrameDecoder.feed`` against ``encode_frame``.

Whatever the read boundaries, a stream of encoded frames decodes to
exactly those payloads in order, and ``pending_bytes`` is the torn
tail.  A stream with something wrong in it (an oversized length, an
unknown tag, a body that does not decode) ends in ``FramingError``:
never a hang, another exception type, or a wrong payload.

The number of examples comes from the Hypothesis profile
(``tests/conftest.py``): a small one by default, ``--hypothesis-profile
ci`` for the larger run.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Message, MsgKind
from repro.realnet.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FramingError,
    encode_frame,
)

_text = st.text(max_size=12)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | _text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12)

messages = st.builds(
    Message,
    kind=st.sampled_from(list(MsgKind)),
    req_id=st.integers(0, 2**31),
    origin=_text,
    user=_text,
    payload=st.dictionaries(_text, _json_values, max_size=4),
    route=st.lists(_text, max_size=4),
    reply_to=st.none() | st.integers(0, 2**31),
    final_dest=st.none() | _text)

payloads = messages | st.dictionaries(_text, _json_values, max_size=6)


def _normal(payload):
    """What a payload looks like after a trip through JSON (tuples are
    lists, keys are strings): the form the decoder can return."""
    if isinstance(payload, Message):
        return payload
    return json.loads(json.dumps(payload))


def _split(blob, cuts):
    """``blob`` cut at the given offsets (each taken modulo its
    length), as the successive reads of one socket."""
    points = sorted({cut % (len(blob) + 1) for cut in cuts})
    edges = [0] + points + [len(blob)]
    return [blob[a:b] for a, b in zip(edges, edges[1:])]


def _feed_all(decoder, reads):
    frames = []
    for data in reads:
        frames.extend(decoder.feed(data))
    return frames


@settings(deadline=None)
@given(st.lists(payloads, max_size=6),
       st.lists(st.integers(0, 10**6), max_size=12),
       st.booleans(), st.integers(0, 64))
def test_any_split_yields_the_frames_and_holds_the_tail(
        items, cuts, bytewise, torn):
    frames = [encode_frame(item) for item in items]
    blob = b"".join(frames)
    expected = [_normal(item) for item in items]
    tail_len = 0
    if frames and torn:
        # Tear the last frame: drop up to ``torn`` of its last bytes.
        cut = min(torn, len(frames[-1]) - 1)
        blob = blob[:-cut]
        expected.pop()
        tail_len = len(frames[-1]) - cut
    reads = [blob[i:i + 1] for i in range(len(blob))] if bytewise \
        else _split(blob, cuts)
    decoder = FrameDecoder()
    assert _feed_all(decoder, reads) == expected
    assert decoder.pending_bytes == tail_len


def _garbage_frames():
    oversized = st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1).map(
        lambda n: n.to_bytes(4, "big") + b"M")
    bad_tag = st.tuples(st.binary(min_size=1, max_size=1).filter(
        lambda tag: tag not in (b"M", b"J")), st.binary(max_size=20)).map(
        lambda tb: len(tb[1]).to_bytes(4, "big") + tb[0] + tb[1])
    bad_body = st.tuples(st.sampled_from([b"M", b"J"]),
                         st.binary(max_size=40)).map(
        lambda tb: len(tb[1]).to_bytes(4, "big") + tb[0] + tb[1])
    return oversized | bad_tag | bad_body


@settings(deadline=None)
@given(st.lists(payloads, max_size=3), _garbage_frames(),
       st.lists(payloads, max_size=2),
       st.lists(st.integers(0, 10**6), max_size=8))
def test_garbage_is_a_framing_error_or_a_body_that_decodes(
        before, garbage, after, cuts):
    """Frames ahead of the garbage come out in order; the garbage is a
    ``FramingError``, unless its random body happens to decode, in
    which case it is one more frame and the stream goes on."""
    prefix = [encode_frame(item) for item in before]
    blob = b"".join(prefix) + garbage + b"".join(
        encode_frame(item) for item in after)
    decoder = FrameDecoder()
    frames = []
    try:
        for data in _split(blob, cuts):
            frames.extend(decoder.feed(data))
    except FramingError:
        assert frames == [_normal(item) for item in before][:len(frames)]
        return
    assert frames[:len(before)] == [_normal(item) for item in before]
    assert frames[len(before) + 1:] == [_normal(item) for item in after]
    assert decoder.pending_bytes == 0
