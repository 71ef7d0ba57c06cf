"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around calls into each
layer — nothing inside ``src/`` is instrumented.  They stay in memory
for the whole run and are written once, at exit, as a Chrome-trace
document (open it at https://ui.perfetto.dev).  Spans of one client
operation share an ``op_id``; a span names the span that caused it
through ``parent``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, NamedTuple, Sequence


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float  # seconds, time.perf_counter()
    end: float
    op_id: int


class SpanRecorder:
    """Append-only span store; ``add`` is a no-op when disabled, so the
    untraced pass pays one attribute test per call site."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []

    def add(
        self, name: str, start: float, end: float, op_id: int,
        parent: int | None = None,
    ) -> int | None:
        if not self.enabled:
            return None
        sid = len(self.spans)
        self.spans.append(Span(sid, parent, name, start, end, op_id))
        return sid


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def self_times_by_name(spans: Sequence[Span]) -> dict[str, list[float]]:
    """``name -> self time of each span of that name``, in record order —
    a layer's cost is read off the spans recorded at its boundary."""
    own = self_times(spans)
    out: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        out[span.name].append(own[span.sid])
    return dict(out)


def chrome_trace(spans: Sequence[Span], *, name: str) -> dict[str, Any]:
    """The spans as a Chrome-trace (Perfetto-loadable) document; one
    thread lane per top-level span family so live requests and the
    pipeline replay read as separate tracks."""
    origin = min((s.start for s in spans), default=0.0)
    by_sid = {s.sid: s for s in spans}
    lanes: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        root = span
        while root.parent is not None:
            root = by_sid[root.parent]
        lane = lanes.setdefault(root.name, len(lanes) + 1)
        events.append({
            "name": span.name, "ph": "X", "pid": 1, "tid": lane,
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": {"op_id": span.op_id, "span": span.sid, "parent": span.parent},
        })
    for lane_name, lane in lanes.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
            "args": {"name": lane_name},
        })
    return {
        "displayTimeUnit": "ms",
        "otherData": {"trace_name": name},
        "traceEvents": events,
    }
