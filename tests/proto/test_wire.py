"""The payload codec: canonical bytes, total round-trips.

The differential test compares witness streams *byte for byte* across
backends, so the codec's determinism (equal values -> identical bytes)
is itself a tested invariant, not an implementation detail.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.adt import Query, Update
from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto import ProtocolCore
from repro.proto.wire import (
    _image_text,
    base_record,
    clock_record,
    decode_payload,
    encode_payload,
    entry_record,
    install_base,
    meta_record,
    read_image,
    replica_snapshot,
    restore_replica,
)
from repro.specs import SetSpec
from repro.specs import set_spec as S

ROUND_TRIPS = [
    None,
    True,
    42,
    2.5,
    "text",
    (1, 0, Update("insert", (7,))),                 # a wire triple
    ("sync-req", {"floors": (0, 2), "bits": 17}),   # a digest-ish tuple
    frozenset({3, 1, 2}),
    {("k", 1): [Update("put", ("k", 1))], 0: None},
    Query("read", (), frozenset({1})),
]


@pytest.mark.parametrize("value", ROUND_TRIPS, ids=lambda v: repr(v)[:40])
def test_round_trip(value):
    assert decode_payload(encode_payload(value)) == value


def test_equal_sets_encode_to_identical_bytes():
    # construction order must not leak into the bytes
    a = frozenset(range(100))
    b = frozenset(reversed(range(100)))
    assert encode_payload(a) == encode_payload(b)


def test_equal_dicts_encode_to_identical_bytes():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert encode_payload(a) == encode_payload(b)


def test_bytes_are_compact_json():
    data = encode_payload((1, 0, Update("insert", (7,))))
    assert b" " not in data  # canonical separators, no pretty-printing
    assert data.decode("utf-8")  # valid utf-8


def test_unencodable_values_raise():
    with pytest.raises(TypeError):
        encode_payload(object())


# -- the durable image is pinned byte for byte -----------------------------------
#
# Expected digests were computed at the commit *before* the v1/v2 image
# formats were deleted (``replica_snapshot(r, version=3)`` there): moving
# the record constructors must not move a byte of the image, and hence
# not of the journal (``journal_bytes_per_update`` in the perf ledger).


def _scripted_universal():
    r = UniversalReplica(0, 3, SetSpec())
    for i in range(4):
        r.on_update(S.insert(i))
    r.on_message(1, (100, 1, S.insert(99)))
    r.on_update(S.delete(2))
    return r


def _scripted_collected():
    r = GarbageCollectedReplica(0, 2, SetSpec(), checkpoint_interval=2)
    for i in range(6):
        r.on_update(S.insert(i))
    r.on_message(1, (3, 1, S.insert("x")))
    r.on_message(1, (9, 1, S.delete(0)))
    r.collect_garbage()
    r.on_update(S.insert(7))
    assert r.gc_clock_floor == 6 and r.log_length == 2  # base and tail both live
    return r


@pytest.mark.parametrize("make,golden", [
    (_scripted_universal,
     "2a03ffca0d0ba50edd49c72e138156c23ca9ca2061cc3408246893fa88eaede4"),
    (_scripted_collected,
     "4e032eeba943a9ceebf288149b512c4a00e951c02551b3b579bb1c8d607c22e5"),
], ids=["universal", "collected"])
def test_image_bytes_are_golden(make, golden):
    image = replica_snapshot(make())
    assert hashlib.sha256(image.encode("utf-8")).hexdigest() == golden


# -- refusals are ValueErrors, never raw KeyErrors ---------------------------------


def test_an_image_without_a_pid_is_refused():
    doc = json.loads(replica_snapshot(_scripted_universal()))
    del doc["pid"]
    with pytest.raises(ValueError, match="names no process"):
        read_image(json.dumps(doc))


@pytest.mark.parametrize("field", ["base", "clock_floor", "frontier"])
def test_a_base_record_missing_a_field_is_refused(field):
    rec = base_record(1, _scripted_collected().durable_gc_state())
    del rec[field]
    r = GarbageCollectedReplica(0, 2, SetSpec())
    with pytest.raises(ValueError, match="malformed base record"):
        install_base(r, rec)
    assert (r.gc_clock_floor, r.clock.value, r.local_state()) == (0, 0, frozenset())


@pytest.mark.parametrize("field", ["base", "clock_floor", "frontier"])
def test_restoring_a_base_record_missing_a_field_is_refused(field):
    image = read_image(replica_snapshot(_scripted_collected()))
    assert image.records[1]["r"] == "base"
    del image.records[1][field]
    with pytest.raises(ValueError, match="malformed base record"):
        restore_replica(GarbageCollectedReplica(0, 2, SetSpec()), image)


def _with_record(rec):
    """A chain-valid, complete image of process 0: a collected replica's
    records with ``rec`` spliced in after its base."""
    records = [
        meta_record(0),
        base_record(1, _scripted_collected().durable_gc_state()),
        rec,
        clock_record(3, 12),
        entry_record(4, (12, 0, S.insert(7))),
    ]
    return _image_text(0, records, True)


UNDECODABLE = {
    "clock-without-value": {"r": "clock", "c": 2},
    "clock-value-null": {"r": "clock", "c": 2, "value": None},
    "entry-without-e": {"r": "entry", "c": 2, "k": "11.0"},
    "heard-not-a-vector": {"r": "heard", "c": 2, "h": 5},
}


@pytest.mark.parametrize("rec", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_restoring_an_undecodable_record_is_refused(rec):
    # The chain verifies, so only decoding can refuse the image — with a
    # ValueError, leaving the recovering core's replica in place.
    core = ProtocolCore(0, 2, lambda p, n: GarbageCollectedReplica(p, n, SetSpec()))
    before = core.replica
    with pytest.raises(ValueError, match="malformed journal record"):
        core.recover(_with_record(rec))
    assert core.replica is before
