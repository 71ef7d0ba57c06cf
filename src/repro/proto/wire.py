"""The pure wire/value codec of the protocol layer.

Everything the protocol ships — ``(clock, pid, update)`` triples, sync
digests, state transfers, heartbeats — and everything it persists —
the durable replica image read back by crash-recovery — round-trips
through the functions here.  The codec builds only plain data (no pickle,
no code execution), so decoding untrusted bytes is safe, and its output is
deterministic (sets are sorted by a stable key), so two encodings of the
same value are byte-identical — a property both the persistence tests and
the sim↔net differential test rely on.

Python value shapes JSON cannot express natively (tuples, frozensets,
dicts with non-string keys, :class:`~repro.core.adt.Update` /
:class:`~repro.core.adt.Query` operations) each get a small
``{"@": tag, ...}`` wrapper.

Both backends use this one codec: the simulator's crash-recovery restores
:func:`replica_snapshot` images, :mod:`repro.net` frames
:func:`encode_payload` bytes over TCP, and :mod:`repro.storage` journals
the very records a :func:`replica_snapshot` image is made of.  Keeping one
codec is what makes the two backends wire- and disk-compatible.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, NamedTuple

from repro.core.adt import Query, Update
from repro.core.sync import SYNC_STATE, SyncProtocolError

#: the durable replica image format (see :func:`replica_snapshot`): a
#: journal image — an ordered record sequence (meta, compacted base,
#: write-ahead clock cell, one record per update) threaded on a rolling
#: digest chain.  This is the textual twin of the on-disk binary journal
#: (:mod:`repro.storage.journal`); both speak the same records.
REPLICA_FORMAT_V3 = "repro-replica-journal-v3"


def encode_value(value: Any) -> Any:
    """Lower a Python value to a JSON-compatible structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Update):
        return {"@": "update", "name": value.name, "args": encode_value(value.args)}
    if isinstance(value, Query):
        return {
            "@": "query", "name": value.name,
            "args": encode_value(value.args), "output": encode_value(value.output),
        }
    if isinstance(value, tuple):
        return {"@": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return _encode_set("frozenset", value)
    if isinstance(value, set):
        return _encode_set("set", value)
    if isinstance(value, dict):
        # Deterministic output: insertion order must not leak into the
        # bytes (two structurally equal dicts encode identically).
        items = sorted(
            ([encode_value(k), encode_value(v)] for k, v in value.items()),
            key=lambda kv: repr(kv[0]),
        )
        return {"@": "dict", "items": items}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    # Imported here: repro.sim's package init imports this codec.
    from repro.sim.replica import KnownIds

    if isinstance(value, KnownIds):
        # a query's visibility view: the bytes of the frozenset it equals
        return _encode_set("frozenset", value)
    raise TypeError(f"cannot persist value of type {type(value).__name__}")


def _encode_set(tag: str, value: Iterable[Any]) -> dict:
    # Deterministic output: sort by a stable key.
    items = sorted((encode_value(v) for v in value), key=repr)
    return {"@": tag, "items": items}


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if not isinstance(data, dict):
        return data
    tag = data.get("@")
    if tag == "update":
        return Update(data["name"], decode_value(data["args"]))
    if tag == "query":
        return Query(
            data["name"], decode_value(data["args"]), decode_value(data["output"])
        )
    if tag == "tuple":
        return tuple(decode_value(v) for v in data["items"])
    if tag == "frozenset":
        return frozenset(decode_value(v) for v in data["items"])
    if tag == "set":
        return set(decode_value(v) for v in data["items"])
    if tag == "dict":
        return {decode_value(k): decode_value(v) for k, v in data["items"]}
    raise ValueError(f"unknown tag {tag!r} in encoded value")


# -- network payload codec -----------------------------------------------------


def encode_payload(payload: Any) -> bytes:
    """One protocol payload as canonical UTF-8 JSON bytes.

    Covers every payload shape the replicas emit: wire triples, sync
    requests/responses/state transfers, heartbeats, and anything built
    from the :func:`encode_value` vocabulary.  The transport frames these
    bytes (see :mod:`repro.net.framing`); the codec itself knows nothing
    about sockets.
    """
    return json.dumps(
        encode_value(payload), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`."""
    return decode_value(json.loads(data.decode("utf-8")))


# -- peer-frame trace headers --------------------------------------------------
#
# The networked backend's MSG frames may carry an optional trailing header
# dict next to the protocol payload (see ``repro.net.framing``).  Headers
# are observability metadata — trace propagation today, whatever comes
# next tomorrow — so the codec here is deliberately lax on decode: unknown
# header fields and malformed entries are *ignored*, never fatal.  A new
# node talking to an old one (or vice versa) must keep replicating even if
# one side does not understand the other's telemetry.

#: The one header field this version understands: a map from timestamp
#: key (``"clock.pid"``) to ``[trace_id, submit_wall_time]``.
TRACES_HEADER = "traces"


def encode_ts_key(timestamp: Any) -> str:
    """A ``(clock, pid)`` protocol timestamp as a JSON-object key."""
    clock, pid = timestamp
    return f"{int(clock)}.{int(pid)}"


def decode_ts_key(key: str) -> tuple[int, int]:
    """Inverse of :func:`encode_ts_key`."""
    clock_text, _, pid_text = key.partition(".")
    return int(clock_text), int(pid_text)


def encode_trace_headers(
    traces: dict[tuple[int, int], tuple[str, float]],
) -> dict[str, Any]:
    """Build the frame-header dict carrying ``traces`` (may be empty)."""
    return {
        TRACES_HEADER: {
            encode_ts_key(ts): [str(trace_id), float(t0)]
            for ts, (trace_id, t0) in traces.items()
        }
    }


def decode_trace_headers(headers: Any) -> dict[tuple[int, int], tuple[str, float]]:
    """Extract the trace map from a frame-header dict, forgivingly.

    Anything that is not shaped like this version's ``traces`` field —
    a non-dict header, unknown sibling fields, entries whose key or value
    does not parse — is skipped without error (forward compatibility with
    header fields minted by newer nodes).
    """
    out: dict[tuple[int, int], tuple[str, float]] = {}
    if not isinstance(headers, dict):
        return out
    traces = headers.get(TRACES_HEADER)
    if not isinstance(traces, dict):
        return out
    for key, value in traces.items():
        try:
            ts = decode_ts_key(str(key))
            trace_id, t0 = value
            out[ts] = (str(trace_id), float(t0))
        except (ValueError, TypeError):
            continue
    return out


# -- the v3 journal record vocabulary ------------------------------------------
#
# A durable image is an ordered sequence of *journal records* — the same
# records the on-disk binary journal (:mod:`repro.storage.journal`)
# appends one fsync at a time.  The five constructors below are the one
# definition of their shape; writers (:func:`journal_records`, the storage
# engine's incremental sync) build records through them only.
#
# ``c`` is the journal's update counter: a per-generation monotone serial
# stamped in append order (within one flush batch, the Lamport
# ``(clock, pid)`` order the log itself is sorted by).  Every record also
# carries ``d``, a prefix of the rolling digest *before* the record — so
# the sequence forms a hash chain ``H = sha256(H' | sha256(record))``
# from a per-pid genesis value, and a reordered, spliced or bit-flipped
# image fails verification even when each record is individually
# well-formed.


def meta_record(pid: int) -> dict:
    """The image/file header record."""
    return {"r": "meta", "format": REPLICA_FORMAT_V3, "pid": pid}


def base_record(counter: int, gc: dict) -> dict:
    """The compacted GC segment; ``gc`` is the replica's
    ``durable_gc_state()``."""
    return {
        "r": "base", "c": counter,
        "base": encode_value(gc["base"]),
        "clock_floor": int(gc["clock_floor"]),
        "frontier": encode_value(gc["frontier"]),
        "heard": encode_value(tuple(gc["heard"])),
    }


def clock_record(counter: int, value: int) -> dict:
    """The write-ahead Lamport clock cell."""
    return {"r": "clock", "c": counter, "value": value}


def heard_record(counter: int, heard: Iterable[int]) -> dict:
    """A heard-vector advance between compactions."""
    return {"r": "heard", "c": counter, "h": encode_value(tuple(heard))}


def entry_record(counter: int, stamped: tuple) -> dict:
    """One logged ``(clock, pid, update)`` triple, keyed by its timestamp."""
    cl, j, update = stamped
    return {
        "r": "entry", "c": counter,
        "k": encode_ts_key((cl, j)),
        "e": encode_value((cl, j, update)),
    }


#: bytes of the hex rolling digest each record carries as its ``d`` link.
DIGEST_LINK_HEX = 16


def genesis_digest(pid: int) -> bytes:
    """The rolling digest's seed for process ``pid``'s journal."""
    return hashlib.sha256(f"{REPLICA_FORMAT_V3}:{int(pid)}".encode("utf-8")).digest()


def encode_record(record: dict) -> bytes:
    """One journal record as canonical UTF-8 JSON bytes (what the binary
    journal frames and the digest chain hashes)."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")


def advance_digest(digest: bytes, payload: bytes) -> bytes:
    """One step of the rolling digest: ``H(H' | H(record))``."""
    return hashlib.sha256(digest + hashlib.sha256(payload).digest()).digest()


def chain_record(digest: bytes, record: dict) -> tuple[bytes, dict, bytes]:
    """Stamp ``record`` with the current chain link and advance the digest.

    Returns ``(new_digest, stamped_record, payload)``; the stamped
    record's ``d`` field is the hex prefix of ``digest`` (the chain state
    *before* this record), so a verifier replaying from
    :func:`genesis_digest` can check every link without trusting any
    record's own claims; ``payload``, the bytes hashed, is what a journal frames.
    """
    stamped = dict(record)
    stamped["d"] = digest.hex()[:DIGEST_LINK_HEX]
    payload = encode_record(stamped)
    return advance_digest(digest, payload), stamped, payload


def verify_chain(pid: int, records: Iterable[dict]) -> str:
    """Replay the digest chain over ``records``; returns the final digest
    (hex).  Raises :class:`ValueError` at the first broken link."""
    digest = genesis_digest(pid)
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"journal record {i} is not an object")
        if rec.get("d") != digest.hex()[:DIGEST_LINK_HEX]:
            raise ValueError(
                f"digest chain mismatch at record {i} "
                f"(r={rec.get('r')!r}): image is corrupt, reordered or "
                "spliced from another journal"
            )
        digest = advance_digest(digest, encode_record(rec))
    return digest.hex()


def journal_records(
    replica: Any, *, fsync_point: int | None = None
) -> tuple[list[dict], bool]:
    """The (unstamped) v3 record sequence for ``replica``'s durable state.

    Shared by :func:`replica_snapshot` (one-shot image) and the storage
    engine's compaction rewrite (fresh journal generation).  Returns
    ``(records, complete)`` where ``complete`` is False when
    ``fsync_point`` truncated the entry tail.  The write-ahead rule is
    encoded in the order: the clock cell precedes every entry, and the
    compacted base — an atomically-rewritten segment the fsync point
    never truncates — precedes both.  The base record is written for a
    replica that keeps a base (``accepts_state``), and only for one.
    """
    entries = list(replica.updates)
    complete = True
    if fsync_point is not None:
        if fsync_point < 0:
            raise ValueError(f"fsync point must be non-negative, got {fsync_point}")
        entries = entries[:fsync_point]
        complete = len(entries) == len(replica.updates)
    records: list[dict] = [meta_record(replica.pid)]
    counter = 0
    if replica.accepts_state:
        counter += 1
        records.append(base_record(counter, replica.durable_gc_state()))
    counter += 1
    records.append(clock_record(counter, replica.clock.value))
    for stamped in entries:
        counter += 1
        records.append(entry_record(counter, stamped))
    return records, complete


class JournalImage(NamedTuple):
    """A v3 record sequence whose digest chain has been verified — once,
    by whoever produced it: :func:`read_image` (from an image text) or the
    storage engine's ``JournalStore.open()`` (the journal scan, on the raw
    frame bytes).  ``complete`` is False when the entry tail was cut (by
    ``fsync_point`` or a torn write), so stored completeness claims
    cannot be trusted verbatim.
    """

    pid: int
    records: list[dict]
    complete: bool


def read_image(text: str) -> JournalImage:
    """Parse and verify a v3 image text (:func:`replica_snapshot`'s
    output).  Raises :class:`ValueError` on a foreign document, a broken
    chain link or a final digest the chain does not replay to."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != REPLICA_FORMAT_V3:
        raise ValueError(f"not a {REPLICA_FORMAT_V3} image")
    pid = doc.get("pid")
    if not isinstance(pid, int):
        raise ValueError("v3 journal image names no process")
    records = doc.get("records")
    if not isinstance(records, list):
        raise ValueError("v3 journal image carries no records")
    digest = verify_chain(pid, records)
    if doc.get("digest") != digest:
        raise ValueError(
            f"rolling digest mismatch: image claims {doc.get('digest')!r}, "
            f"chain replays to {digest!r}"
        )
    return JournalImage(pid, records, bool(doc.get("complete", False)))


# -- the durable replica image -------------------------------------------------


def replica_snapshot(replica: Any, *, fsync_point: int | None = None) -> str:
    """Serialize a replica's durable state (update log + Lamport clock)
    as a one-shot v3 journal image: the :func:`journal_records` sequence
    threaded on the rolling digest chain — shaped like the on-disk binary
    journal, so recovery is the same verified record replay either way.

    ``fsync_point`` caps how many log entries survived the crash (``None``
    = the whole log was fsynced); the image's ``complete`` flag records
    whether it holds the *whole* log, so restore knows whether stored
    completeness claims can be trusted verbatim.  The clock always
    survives in full (a write-ahead cell, fsynced at every tick): a
    recovering process must never reuse a ``(clock, pid)`` timestamp that
    copies of its pre-crash broadcasts may still carry.  Neither does the
    fsync point truncate the ``base`` record of a replica that keeps a
    base (``accepts_state``) — the compacted base is modeled as an
    atomically-rewritten segment, and without it a crash+recover would
    silently rewind every collected update.  The
    replica must be of the :class:`~repro.core.universal.UniversalReplica`
    family (an ``updates`` log of ``(clock, pid, update)`` triples and a
    ``clock``).
    """
    records, complete = journal_records(replica, fsync_point=fsync_point)
    return _image_text(replica.pid, records, complete)


def _image_text(pid: int, records: list[dict], complete: bool) -> str:
    """Thread ``records`` on ``pid``'s digest chain; the image text."""
    digest = genesis_digest(pid)
    stamped = []
    for rec in records:
        digest, s, _payload = chain_record(digest, rec)
        stamped.append(s)
    return json.dumps({
        "format": REPLICA_FORMAT_V3,
        "pid": int(pid),
        "complete": complete,
        "digest": digest.hex(),
        "records": stamped,
    })


def install_base(replica: Any, rec: dict) -> bool:
    """Install a verified ``base`` record — from the replica's own journal
    at boot or a peer's state transfer — through ``install_gc_state``;
    returns whether it was adopted.  Every field is decoded first: a
    record lacking one, or a replica that keeps no base, is a
    :class:`ValueError` and installs nothing."""
    try:
        frontier = decode_value(rec["frontier"])
        base = decode_value(rec["base"])
        clock_floor = int(rec["clock_floor"])
        if frontier is not None:
            frontier = tuple(frontier)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed base record: {exc!r}") from exc
    return replica.install_gc_state(
        base=base, clock_floor=clock_floor, frontier=frontier
    )


# -- state transfer ------------------------------------------------------------


def state_transfer(replica: Any) -> tuple:
    """The ``(SYNC_STATE, image_text)`` handoff of ``replica``'s compacted
    base: its journal's meta and base records as a two-record image.  It
    travels as text, so no value-codec pass touches the bytes the chain
    covers; the receiver's floor claims come from the base, never from
    the record's ``heard`` copy."""
    pid = replica.pid
    records = [meta_record(pid), base_record(1, replica.durable_gc_state())]
    return (SYNC_STATE, _image_text(pid, records, True))


def install_state_transfer(replica: Any, src: int, payload: Any) -> bool:
    """Verify a ``SYNC_STATE`` payload from peer ``src`` and install its
    base record; returns whether it was adopted.  Anything but a
    ``[meta, base]`` image of process ``src`` whose chain verifies is a
    :class:`~repro.core.sync.SyncProtocolError`, and installs nothing."""
    try:
        if len(payload) != 2 or not isinstance(payload[1], str):
            raise ValueError("not a (sync-state, image text) pair")
        pid, records, _complete = read_image(payload[1])
        if (pid != src or [rec.get("r") for rec in records] != ["meta", "base"]
                or records[0].get("pid") != src):
            raise ValueError(f"not a [meta, base] image of process {src}")
        return install_base(replica, records[1])
    except ValueError as exc:
        raise SyncProtocolError(
            f"state transfer from {src} refused: {exc}"
        ) from exc


def restore_replica(replica: Any, image: str | JournalImage) -> int:
    """Load a v3 journal image into a fresh replica of the same pid.

    The one reader of the durable format.  ``image`` is the verified
    records the storage engine read off disk (:class:`JournalImage`) or
    an image text, which goes through :func:`read_image` first — either
    way every chain link was checked exactly once before any record
    touches replica state, and every field is decoded before any does.
    Records are replayed in journal order: the
    clock first (no timestamp reuse after log amnesia), then the
    compacted base if the image carries one, then the surviving entries
    through the replica's ``load_log``.  The replica finally re-derives
    its ``heard`` claims (``finish_restore``): trusted verbatim from a
    complete image, rewound to what the surviving prefix proves after a
    truncated one.  Raises :class:`ValueError`, never a raw ``KeyError``
    or ``TypeError``, on an image the replica cannot take.  Returns the
    number of log entries restored.
    """
    if isinstance(image, str):
        image = read_image(image)
    pid, records, complete = image
    if pid != replica.pid:
        raise ValueError(f"snapshot belongs to process {pid}, not {replica.pid}")
    if not records:
        raise ValueError("v3 journal image carries no records")
    meta = records[0]
    if meta.get("r") != "meta" or meta.get("format") != REPLICA_FORMAT_V3:
        raise ValueError("v3 journal image does not start with a meta record")
    if meta.get("pid", pid) != pid:
        raise ValueError(
            f"journal meta belongs to process {meta.get('pid')}, not {pid}"
        )
    # One pass to collect the current-state cells: the clock cell is
    # write-ahead (the max of every cell ever appended), the last base
    # record wins (floors are monotone), entries keep journal order —
    # ``load_log`` dedups re-appends.
    clock = 0
    base_rec: dict | None = None
    heard_rec: dict | None = None
    encoded: list[Any] = []
    try:
        for rec in records:
            kind = rec.get("r")
            if kind == "entry":
                encoded.append(rec["e"])
            elif kind == "clock":
                clock = max(clock, int(rec["value"]))
            elif kind == "base":
                base_rec = rec
            elif kind == "heard":
                heard_rec = rec
            # meta and unknown record kinds: skip (forward compatibility)
        entries = [(int(cl), int(j), u) for cl, j, u in decode_value(encoded)]
        # ``heard`` records (appended by the storage engine when the
        # vector advances between compactions) supersede the base
        # record's copy — last wins, heard is per-component monotone.
        stored = heard_rec["h"] if heard_rec else base_rec and base_rec.get("heard")
        heard = None if stored is None else tuple(map(int, decode_value(stored)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed journal record: {exc!r}") from exc
    replica.clock.merge(clock)
    if base_rec is not None:
        install_base(replica, base_rec)
    loaded = replica.load_log(entries)
    replica.finish_restore(clock, heard=heard if complete else None)
    return loaded
