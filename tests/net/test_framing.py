"""Framing: length-prefixed frames survive the wire intact."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adt import Update
from repro.core.checkpoint import GarbageCollectedReplica
from repro.net.framing import (
    MAX_FRAME,
    FrameError,
    decode_frame,
    encode_frame,
    pop_frames,
)
from repro.net.node import MSG
from repro.proto.wire import state_transfer
from repro.specs.set_spec import SetSpec, insert


def test_round_trip_with_rest():
    payload = ("msg", 0, (1, 0, Update("insert", (7,))))
    data = encode_frame(payload) + b"trailing"
    value, rest = decode_frame(data)
    assert value == payload
    assert rest == b"trailing"


def test_back_to_back_frames():
    data = encode_frame(1) + encode_frame(2)
    first, rest = decode_frame(data)
    second, rest = decode_frame(rest)
    assert (first, second, rest) == (1, 2, b"")


def test_truncated_prefix_raises():
    with pytest.raises(FrameError):
        decode_frame(b"\x00\x00")


def test_truncated_body_raises():
    data = encode_frame("hello")
    with pytest.raises(FrameError):
        decode_frame(data[:-1])


def test_oversized_length_rejected_before_allocation():
    bogus = (MAX_FRAME + 1).to_bytes(4, "big") + b"x"
    with pytest.raises(FrameError):
        decode_frame(bogus)


def test_pop_frames_from_a_receive_buffer():
    buf = bytearray(encode_frame({"a": 1}) + encode_frame({"b": 2}))
    assert pop_frames(buf) == [{"a": 1}, {"b": 2}]
    assert buf == bytearray()  # clean end: nothing left over


def test_pop_frames_keeps_a_partial_frame_for_the_next_read():
    data = encode_frame("payload")
    buf = bytearray(data[:-2])
    assert pop_frames(buf) == []
    buf += data[-2:]
    assert pop_frames(buf) == ["payload"] and not buf


@pytest.mark.parametrize(
    "body", [b"not json", b"\xff\xfe", b'{"@": "nope"}'],
    ids=["not-json", "not-utf8", "unknown-tag"],
)
def test_pop_frames_rejects_an_undecodable_body(body):
    with pytest.raises(FrameError):
        pop_frames(bytearray(len(body).to_bytes(4, "big") + body))


def test_pop_frames_rejects_an_oversized_prefix():
    with pytest.raises(FrameError):
        pop_frames(bytearray((MAX_FRAME + 1).to_bytes(4, "big")))


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_VALUES, max_size=8), data=st.data())
def test_any_cut_of_a_frame_stream_yields_the_same_frames(values, data):
    """However TCP cuts the stream into reads, the receive buffer yields
    the frames one chunk would, in order, and keeps only a partial tail."""
    stream = b"".join(encode_frame(v) for v in values)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=10)))
    whole = bytearray(stream)
    expected = pop_frames(whole)
    buf, got = bytearray(), []
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
        buf += stream[lo:hi]
        got += pop_frames(buf)
    assert got == expected and not buf and not whole


def test_a_state_transfer_crosses_the_framing_byte_for_byte_and_installs():
    sender = GarbageCollectedReplica(0, 2, SetSpec())
    for v in range(5):
        sender.on_update(insert(v))
    sender.on_message(1, ("hb", 10, 1))
    assert sender.collect_garbage() == 5
    payload = state_transfer(sender)
    buf = bytearray(encode_frame((MSG, 0, payload)))
    [(kind, src, received)] = pop_frames(buf)
    assert (kind, src) == (MSG, 0) and not buf
    assert received == payload and received[1].encode() == payload[1].encode()
    receiver = GarbageCollectedReplica(1, 2, SetSpec())
    receiver.on_message(src, received)
    assert receiver.gc_clock_floor == sender.gc_clock_floor == 5
    assert receiver.local_state() == sender.local_state() == set(range(5))
