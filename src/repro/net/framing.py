"""Length-prefixed framing for the TCP peer links.

One frame is a 4-byte big-endian length followed by that many bytes of
canonical :func:`repro.proto.wire.encode_payload` JSON.  The framing
layer is deliberately dumb: it moves one encoded value per frame and
knows nothing about what the value means (hellos, protocol payloads,
HTTP — those are :mod:`repro.net.node`'s vocabulary) and does no I/O: a
peer link's ``data_received`` hands its buffer to :func:`pop_frames`.

The length cap rejects obviously corrupt or hostile prefixes before
allocating; 16 MiB comfortably covers the largest legitimate frame (a
state-transfer payload for a long-lived object) while keeping a garbage
prefix from requesting a multi-gigabyte read.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.proto.wire import decode_payload, encode_payload

#: Hard cap on one frame's body size (corrupt-prefix guard).
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(ValueError):
    """A frame violated the framing contract (oversized or truncated)."""


def encode_frame(value: Any) -> bytes:
    """One value as a wire frame: ``len(body)`` big-endian + body."""
    body = encode_payload(value)
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds cap {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def decode_frame(data: bytes) -> tuple[Any, bytes]:
    """Decode one frame from ``data``; returns ``(value, rest)``.

    For tests and for parsing recorded byte streams.  Raises
    :class:`FrameError` when ``data`` does not start with a complete frame.
    """
    if len(data) < _LEN.size:
        raise FrameError("truncated length prefix")
    (length,) = _LEN.unpack_from(data)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds cap {MAX_FRAME}")
    end = _LEN.size + length
    if len(data) < end:
        raise FrameError(f"truncated frame body ({len(data) - _LEN.size}/{length})")
    return decode_payload(data[_LEN.size:end]), data[end:]


def pop_frames(buf: bytearray) -> list[Any]:
    """Decode and remove every complete frame at the front of ``buf``,
    leaving a partial one for the next read.  Raises :class:`FrameError`
    on an over-cap prefix or an undecodable body (the stream is lost)."""
    frames: list[Any] = []
    offset, size = 0, len(buf)
    while size - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(buf, offset)
        if length > MAX_FRAME:
            raise FrameError(f"frame of {length} bytes exceeds cap {MAX_FRAME}")
        end = offset + _LEN.size + length
        if end > size:
            break
        try:
            frames.append(decode_payload(buf[offset + _LEN.size:end]))
        except (ValueError, KeyError, TypeError) as exc:
            raise FrameError(f"undecodable frame body: {exc}") from exc
        offset = end
    del buf[:offset]
    return frames


# -- optional MSG-frame headers ------------------------------------------------
#
# Protocol MSG frames are ``(kind, src, payload)`` tuples; a node may
# append one trailing dict of observability headers (trace propagation —
# see ``repro.proto.wire.encode_trace_headers``).  The two helpers below
# are the whole convention: headers are attached only when non-empty, so
# an untraced node's frames stay byte-identical to the pre-header wire
# format (the sim↔net differential test depends on that), and a receiver
# ignores trailing elements beyond the headers dict (frames minted by a
# future protocol version must not kill the link).


def with_headers(frame: tuple[Any, ...], headers: dict[str, Any] | None) -> tuple[Any, ...]:
    """Append a header dict to a MSG frame tuple; no-op when empty."""
    if not headers:
        return frame
    return (*frame, headers)


def split_headers(rest: tuple[Any, ...]) -> tuple[Any, dict[str, Any]]:
    """Split a MSG frame's tail into ``(payload, headers)``.

    ``rest`` is everything after the ``(kind, src)`` prefix.  A bare
    payload yields empty headers; a non-dict in the header slot or extra
    trailing elements are ignored (forward compatibility).
    """
    if not rest:
        raise FrameError("MSG frame carries no payload")
    payload = rest[0]
    headers = rest[1] if len(rest) > 1 and isinstance(rest[1], dict) else {}
    return payload, headers
