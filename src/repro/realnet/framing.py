"""Length-prefixed framing of the PPM wire format over byte streams.

TCP is a byte stream; the protocol is message-oriented.  Every frame
on a realnet socket is::

    4 bytes big-endian body length | 1 tag byte | body

with two tags:

* ``b"M"`` — the body is :func:`repro.core.wire.encode` of a protocol
  :class:`~repro.core.messages.Message` (the *same* canonical JSON the
  simulator charges for — the wire format is backend-independent).
* ``b"J"`` — the body is a plain JSON object (connection-setup frames:
  service dial, accept/refuse, bootstrap payloads).

:class:`FrameDecoder` is incremental: feed it whatever ``read()``
returned — half a length prefix, three frames and a torn fourth — and
it yields exactly the completed frames, buffering the rest.  Torn
reads are counted (``real_partial_reads``) because they are the edge
the simulator never exercises.
"""

from __future__ import annotations

import json
import struct
from typing import List, Union

from ..core.messages import Message
from ..core.wire import decode as wire_decode
from ..core.wire import encode as wire_encode
from ..errors import ReproError
from ..perf import PERF

#: struct format of the length prefix.
_LEN = struct.Struct(">I")

#: Length prefix plus tag: the bytes before a frame's body.
_HEAD = _LEN.size + 1

#: Refuse anything claiming a body larger than this (corrupt peer or
#: desynchronised stream — fail loudly rather than buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

TAG_MESSAGE = b"M"
TAG_JSON = b"J"


class FramingError(ReproError):
    """A malformed frame arrived (bad tag, oversized length, bad body)."""


def encode_frame(payload: Union[Message, dict]) -> bytes:
    """One wire frame for a protocol message or a control dict."""
    if isinstance(payload, Message):
        tag, body = TAG_MESSAGE, wire_encode(payload)
    else:
        tag = TAG_JSON
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    PERF.real_frames_sent += 1
    return _LEN.pack(len(body)) + tag + body


def decode_body(tag: bytes, body: bytes) -> Union[Message, dict]:
    """The payload of one frame; anything that does not decode is a
    :class:`FramingError` (a peer's bytes, not a bug of this process)."""
    try:
        if tag == TAG_MESSAGE:
            return wire_decode(body)
        if tag == TAG_JSON:
            return json.loads(body.decode("utf-8"))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise FramingError("bad body in a %r frame: %s: %s" % (
            bytes(tag), type(exc).__name__, exc)) from exc
    raise FramingError("unknown frame tag %r" % (bytes(tag),))


class FrameDecoder:
    """Incremental frame reassembly over arbitrary read boundaries.

    A read of whole frames is parsed in place, one slice per body;
    only a torn tail is copied aside.  Once the tail holds its header,
    the decoder knows the frame's full length and merely appends until
    it is complete, so a 16 MiB frame arriving in 64 KiB reads is
    parsed once, not re-scanned per read.
    """

    def __init__(self) -> None:
        #: Bytes of a frame not yet complete.
        self._tail = bytearray()
        #: The whole frame's length, once the tail holds its header.
        self._need = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._tail)

    def feed(self, data: bytes) -> List[Union[Message, dict]]:
        """Absorb one read's worth of bytes; return completed frames.

        Returns decoded payloads in arrival order.  Bytes beyond the
        last complete frame stay buffered for the next feed.
        """
        frames: List[Union[Message, dict]] = []
        if not data:
            return frames
        pos = 0
        tail = self._tail
        if tail:
            if len(tail) < _HEAD:
                pos = _HEAD - len(tail)
                tail += data[:pos]
                if len(tail) < _HEAD:
                    PERF.real_partial_reads += 1
                    return frames
                self._need = _HEAD + _body_length(tail, 0)
            taken = pos
            pos += self._need - len(tail)
            tail += data[taken:pos]
            if len(tail) < self._need:
                PERF.real_partial_reads += 1
                return frames
            frames.append(decode_body(tail[_LEN.size:_HEAD], tail[_HEAD:]))
            tail.clear()
        end = len(data)
        while end - pos >= _HEAD:
            stop = pos + _HEAD + _body_length(data, pos)
            if stop > end:
                self._need = stop - pos
                break
            frames.append(decode_body(data[pos + _LEN.size:pos + _HEAD],
                                      data[pos + _HEAD:stop]))
            pos = stop
        PERF.real_frames_received += len(frames)
        if pos < end:
            tail += data[pos:]
            PERF.real_partial_reads += 1
        return frames


def _body_length(data, pos: int) -> int:
    """The body length in the header at ``data[pos:]``, refusing one
    over :data:`MAX_FRAME_BYTES`."""
    (length,) = _LEN.unpack_from(data, pos)
    if length > MAX_FRAME_BYTES:
        raise FramingError("frame of %d bytes exceeds the %d-byte "
                           "cap" % (length, MAX_FRAME_BYTES))
    return length
