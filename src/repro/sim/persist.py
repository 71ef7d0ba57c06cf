"""Trace persistence: save and reload runs as JSON.

Simulated runs are deterministic from their seed, but an audited trace is
often the artifact one wants to keep (or to feed to the checkers on a
different machine).  The codec round-trips every payload the library
produces: operations (name/args/output), witness metadata (timestamps,
visibility sets), and the common Python value shapes (tuples, frozensets,
dicts with non-string keys) that JSON cannot express natively — each gets
a small ``{"@": tag, ...}`` wrapper from the value codec in
:mod:`repro.proto.wire`, which is also the home of the durable replica
image (``replica_snapshot`` / ``restore_replica``) that crash-recovery
reads back.

Security note: the decoder builds only plain data (no pickle, no code
execution), so loading untrusted trace files is safe.
"""

from __future__ import annotations

import json

from repro.core.adt import Query, Update
from repro.proto.wire import decode_value, encode_value
from repro.sim.cluster import OpRecord, Trace

_FORMAT = "repro-trace-v1"

__all__ = [
    "trace_to_json",
    "trace_from_json",
    "save_trace",
    "load_trace",
]


def trace_to_json(trace: Trace, *, indent: int | None = None) -> str:
    """Serialize a trace (records only; replica internals are derivable)."""
    doc = {
        "format": _FORMAT,
        "records": [
            {
                "eid": r.eid,
                "pid": r.pid,
                "time": r.time,
                "label": encode_value(r.label),
                "meta": encode_value(dict(r.meta)),
            }
            for r in trace.records
        ],
    }
    return json.dumps(doc, indent=indent)


def trace_from_json(text: str) -> Trace:
    """Parse a trace file back into a :class:`Trace`."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} file")
    trace = Trace()
    for rec in doc["records"]:
        label = decode_value(rec["label"])
        if not isinstance(label, (Update, Query)):
            raise ValueError(f"record {rec.get('eid')}: label is not an operation")
        meta = decode_value(rec["meta"])
        if not isinstance(meta, dict):
            raise ValueError(f"record {rec.get('eid')}: meta is not a mapping")
        trace.append(
            OpRecord(
                eid=int(rec["eid"]),
                pid=int(rec["pid"]),
                label=label,
                time=float(rec["time"]),
                meta=meta,
            )
        )
    return trace


def save_trace(trace: Trace, path) -> None:
    """Write ``trace`` to ``path`` as indented JSON (always UTF-8 — the
    platform default encoding must not leak into durable artifacts)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_json(trace, indent=2))


def load_trace(path) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    with open(path, encoding="utf-8") as fh:
        return trace_from_json(fh.read())
