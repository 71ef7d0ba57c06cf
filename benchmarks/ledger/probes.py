"""Per-layer probes of the traced pass: the pipeline replay.

After the live pass, the first :data:`REPLAY_OPS` timed ops of the
workload are pushed, socket-free, through the hop list of the ROADMAP
north star, assembled from public functions::

    ProtocolCore.submit -> for each Broadcast, per live peer:
        proto.wire.encode_payload -> net.framing.encode_frame
        -> decode_frame -> decode_payload -> peer ProtocolCore.deliver
    every 15 ops: JournalStore.sync(core.replica) on a scratch journal

with the cores pre-loaded the way the workload's set-up loaded its nodes.
The topology follows the workload: a hop the workload never takes (no
peer, no wire, no journal) is *off path* and reported as ``None``.

Every call is a child span of its op's root span, which carries the same
``op_id`` as the live request it replays.  ``encode_frame`` and
``decode_frame`` run the codec inside them, so the framing layer's own
cost is the frame span minus the codec span measured on the same value.

Each probe group imports its names inside ``try``: a renamed function
yields ``None`` plus an entry in ``probe_errors``, never a failed run.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Callable

from .loadgen import Op
from .spans import Span, SpanRecorder, self_times_by_name
from .stats import median

REPLAY_OPS = 2000
SYNC_EVERY = 15
SYNC_PROBES = 20
COMMIT_PROBES = 30

#: what a probe may raise when ``src/`` moved under it
PROBE_FAILURES = (ImportError, AttributeError, TypeError, ValueError, OSError, RuntimeError)

def _import(errors: list[str], group: str, loader: Callable[[], Any]) -> Any:
    try:
        return loader()
    except (ImportError, AttributeError) as exc:
        errors.append(f"{group}: {exc!r}")
        return None


def _load_core() -> Any:
    from repro.net.__main__ import make_factory
    from repro.proto.core import ProtocolCore
    from repro.proto.effects import Broadcast
    from repro.specs import set_spec

    return ProtocolCore, Broadcast, make_factory, set_spec


def _load_wire() -> Any:
    from repro.proto.wire import decode_payload, encode_payload

    return encode_payload, decode_payload


def _load_framing() -> Any:
    from repro.net.framing import decode_frame, encode_frame

    return encode_frame, decode_frame


def _load_storage() -> Any:
    from repro.storage import Journal, JournalStore

    return Journal, JournalStore


def run_probes(
    facts: dict[str, Any],
    recorder: SpanRecorder,
    work_dir: str,
    errors: list[str],
    *,
    cpu_ms_per_op: float,
    sync_requests_per_op: float,
) -> dict[str, float | None]:
    """Replay the workload through the hop list; returns what it could
    measure (a metric that is off path, or whose probe broke, is absent)."""
    out: dict[str, float | None] = {}
    core_api = _import(errors, "proto.core", _load_core)
    if core_api is None:
        return out
    wire_api = _import(errors, "proto.wire", _load_wire)
    framing_api = _import(errors, "net.framing", _load_framing)
    storage_api = _import(errors, "storage", _load_storage)
    scratch = os.path.join(work_dir, "probe-scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    store = None
    try:
        if facts["journal"] and storage_api is not None:
            store = storage_api[1](os.path.join(scratch, "pipeline.journal"), 0)
            store.open()
        _pipeline(
            out, facts, recorder, store, errors, core_api, wire_api, framing_api,
            cpu_ms_per_op, sync_requests_per_op,
        )
    except PROBE_FAILURES as exc:
        errors.append(f"pipeline: {exc!r}")
    finally:
        if store is not None:
            store.close()
    if storage_api is not None:
        for probe in (_probe_commit, _probe_open):
            try:
                probe(out, facts, scratch, storage_api)
            except PROBE_FAILURES as exc:
                errors.append(f"{probe.__name__}: {exc!r}")
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def _pipeline(
    out: dict[str, float | None], facts: dict[str, Any], recorder: SpanRecorder,
    store: Any, errors: list[str], core_api: Any, wire_api: Any, framing_api: Any,
    cpu_ms_per_op: float, sync_requests_per_op: float,
) -> None:
    ProtocolCore, Broadcast, make_factory, set_spec = core_api
    on_wire = facts["wire"] and wire_api is not None and framing_api is not None
    if facts["wire"] and not on_wire:
        errors.append("pipeline: wire hops skipped (codec or framing unavailable)")
    def as_update(op: Op) -> Any:
        return (set_spec.insert if op.kind == "insert" else set_spec.delete)(op.value)

    factory = make_factory("set", gc=facts["gc"])
    origin = ProtocolCore(0, facts["nodes"], factory)
    peers = [
        ProtocolCore(pid, facts["nodes"], factory)
        for pid in range(1, facts["live_peers"] + 1)
    ]

    # Preload as the workload's set-up did: each update at the process
    # that issued it, shipped to the rest every ``drain_every`` ops.
    cores = [origin, *peers]
    in_flight: list[tuple[Any, Any]] = []
    for i, op in enumerate(facts["preload"]):
        author = cores[op.pid]
        in_flight += [
            (author, effect.payload) for effect in author.submit(as_update(op))
            if isinstance(effect, Broadcast)
        ]
        if i % facts["drain_every"] == facts["drain_every"] - 1:
            _drain(cores, in_flight)
    _drain(cores, in_flight)
    if store is not None:
        store.sync(origin.replica)

    clock = time.perf_counter
    first_span = len(recorder.spans)

    # Anti-entropy at the workload's log length (before the replay grows
    # it).  One untimed round first: the first ``sync_request`` of a
    # process pays a lazy import.
    request = None
    for k in range(-1, SYNC_PROBES):
        t0 = clock()
        effects = origin.sync_tick()
        t1 = clock()
        request = next(e.payload for e in effects if isinstance(e, Broadcast))
        t2 = clock()
        for peer in peers[:1]:
            peer.deliver(0, request)
        t3 = clock()
        if k < 0:
            continue
        op_id = len(facts["ops"]) + k
        root = recorder.add("pipeline.sync", t0, t3, op_id)
        recorder.add("core.sync.tick", t0, t1, op_id, parent=root)
        if peers:
            recorder.add("core.sync.serve", t2, t3, op_id, parent=root)

    payload_bytes: list[int] = []
    frame_bytes: list[int] = []
    appended = 0
    ops: list[Op] = facts["ops"][:REPLAY_OPS]
    for i, op in enumerate(ops):
        calls: list[tuple[str, float, float]] = []
        t_root = clock()
        if op.kind == "contains":
            t0 = clock()
            origin.query("contains", (op.value,))
            calls.append(("proto.core.query", t0, clock()))
        else:
            update = as_update(op)
            t0 = clock()
            effects = origin.submit(update)
            calls.append(("proto.core.submit", t0, clock()))
            for effect in effects:
                if not isinstance(effect, Broadcast):
                    continue
                for peer in peers:
                    payload = effect.payload
                    if on_wire:
                        payload = _wire_hops(
                            ("msg", 0, payload), i % 2 == 0, wire_api, framing_api,
                            calls, payload_bytes, frame_bytes,
                        )
                    t0 = clock()
                    peer.deliver(0, payload)
                    calls.append(("proto.core.deliver", t0, clock()))
        if store is not None and i % SYNC_EVERY == SYNC_EVERY - 1:
            t0 = clock()
            appended += store.sync(origin.replica)["appended"]
            calls.append(("storage.engine.sync", t0, clock()))
        root = recorder.add("pipeline.op", t_root, clock(), i)
        for name, start, end in calls:
            recorder.add(name, start, end, i, parent=root)

    spans: list[Span] = recorder.spans[first_span:]
    own = self_times_by_name(spans)

    def typical_us(name: str) -> float | None:
        """Median self time of one call: the first call after other work
        runs on cold caches and an occasional one eats a GC pass, so the
        mean of a ~10 us span wanders by more than the layers differ."""
        return median(own[name]) * 1e6 if name in own else None

    out["proto.core.submit_us"] = typical_us("proto.core.submit")
    out["proto.core.deliver_us"] = typical_us("proto.core.deliver")
    out["proto.core.query_us"] = typical_us("proto.core.query")
    out["core.sync.tick_us"] = typical_us("core.sync.tick")
    out["core.sync.serve_us"] = typical_us("core.sync.serve")
    if request is not None and wire_api is not None:
        out["core.sync.request_bytes"] = float(len(wire_api[0](request)))
    frame_enc = typical_us("net.framing.encode")
    frame_dec = typical_us("net.framing.decode")
    if on_wire and frame_enc is not None:
        out["proto.wire.encode_us"] = typical_us("proto.wire.encode")
        out["proto.wire.decode_us"] = typical_us("proto.wire.decode")
        out["net.framing.encode_us"] = frame_enc - out["proto.wire.encode_us"]
        out["net.framing.decode_us"] = frame_dec - out["proto.wire.decode_us"]
        out["proto.wire.payload_bytes"] = sum(payload_bytes) / len(payload_bytes)
        out["net.framing.frame_bytes"] = sum(frame_bytes) / len(frame_bytes)
    syncs = own.get("storage.engine.sync", [])
    sync_us = typical_us("storage.engine.sync")
    if syncs:
        out["storage.engine.sync_us"] = sync_us
        if appended:
            out["storage.engine.sync_us_per_new_entry"] = sync_us * len(syncs) / appended

    # Sum of layer self times along one update, and the share of the
    # measured CPU per op that no layer above accounts for (asyncio,
    # sockets, HTTP parse, timers).
    updates = sum(1 for op in ops if op.kind != "contains")
    hop = (out["proto.core.deliver_us"] or 0.0) + (
        (frame_enc or 0.0) + (frame_dec or 0.0) if on_wire else 0.0
    )
    per_update = (
        out["proto.core.submit_us"] + len(peers) * hop
        + (sync_us or 0.0) * len(syncs) / updates
    )
    background = sync_requests_per_op * (
        out["core.sync.tick_us"] + len(peers) * (out["core.sync.serve_us"] or 0.0)
    )
    per_op = (
        per_update * updates / len(ops)
        + (out["proto.core.query_us"] or 0.0) * (len(ops) - updates) / len(ops)
        + background
    )
    out["ledger.pipeline_us_per_update"] = per_update
    out["ledger.unattributed_share"] = 1.0 - per_op / (cpu_ms_per_op * 1e3)


def _drain(cores: list, in_flight: list[tuple[Any, Any]]) -> None:
    """Deliver every buffered broadcast to all cores but its author."""
    for author, payload in in_flight:
        for core in cores:
            if core is not author:
                core.deliver(author.pid, payload)
    in_flight.clear()


def _wire_hops(
    frame: tuple, codec_first: bool, wire_api: Any, framing_api: Any,
    calls: list[tuple[str, float, float]], payload_bytes: list[int], frame_bytes: list[int],
) -> Any:
    """One MSG frame through codec and framing, both directions; returns
    the payload the receiver decoded.  The frame calls run the codec
    inside them, so each direction calls both on the same value; whichever
    runs second finds the code warm, so the order alternates by op and the
    bias cancels in the mean."""
    clock = time.perf_counter
    encode_payload, decode_payload = wire_api
    encode_frame, decode_frame = framing_api
    t0 = clock()
    if codec_first:
        body = encode_payload(frame)
        t1 = clock()
        data = encode_frame(frame)
        t2 = clock()
        decode_payload(body)
        t3 = clock()
        decoded, _rest = decode_frame(data)
        t4 = clock()
        calls += [
            ("proto.wire.encode", t0, t1), ("net.framing.encode", t1, t2),
            ("proto.wire.decode", t2, t3), ("net.framing.decode", t3, t4),
        ]
    else:
        data = encode_frame(frame)
        t1 = clock()
        body = encode_payload(frame)
        t2 = clock()
        decoded, _rest = decode_frame(data)
        t3 = clock()
        decode_payload(body)
        t4 = clock()
        calls += [
            ("net.framing.encode", t0, t1), ("proto.wire.encode", t1, t2),
            ("net.framing.decode", t2, t3), ("proto.wire.decode", t3, t4),
        ]
    payload_bytes.append(len(body))
    frame_bytes.append(len(data))
    return decoded[2]


def _probe_commit(
    out: dict[str, float | None], facts: dict[str, Any], scratch: str, storage_api: Any,
) -> None:
    """One record appended and committed (flush + fsync) — the stall a
    flush puts on the event loop."""
    if not facts["journal"]:
        return
    journal, _records, _torn = storage_api[0].open(os.path.join(scratch, "commit.journal"), 0)
    try:
        took: list[float] = []
        for k in range(COMMIT_PROBES):
            t0 = time.perf_counter()
            journal.append({"r": "probe", "c": k})
            journal.commit()
            took.append((time.perf_counter() - t0) * 1e6)
        out["storage.journal.commit_us"] = median(took)
    finally:
        journal.close()


def _probe_open(
    out: dict[str, float | None], facts: dict[str, Any], scratch: str, storage_api: Any,
) -> None:
    """Recovery of the journal the workload left behind (node 0's)."""
    if not facts["journal"]:
        return
    journals = sorted(n for n in os.listdir(facts["data_dir"]) if n.endswith(".journal"))
    copy = os.path.join(scratch, "left-behind.journal")
    shutil.copyfile(os.path.join(facts["data_dir"], journals[0]), copy)
    store = storage_api[1](copy, 0)
    try:
        t0 = time.perf_counter()
        store.open()
        out["storage.engine.open_s"] = time.perf_counter() - t0
        out["storage.engine.records"] = float(store.info()["records"])
    finally:
        store.close()
