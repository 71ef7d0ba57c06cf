"""Compare two run documents of the perf ledger.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the reference (the parent commit, or the first of two runs of
one commit), ``B`` the candidate.  One row per (workload, metric):

``ok``          ``B`` is within the metric's bound of ``A`` (bounds and
                directions come from ``BENCHMARK.json``)
``worse``       ``B`` is beyond the bound; or a count that must repeat
                exactly — the ``sim.*`` counts, ``failed_ops_share`` —
                differs
``unresolved``  the metric is missing or ``null`` on one side
``info``        a per-layer number without a bound, shown with its ratio

Exits non-zero when any row is ``worse``.  This is the tool the "two runs
of one commit agree" criterion is checked with.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Iterator

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: per-layer counts that are a pure function of the seed
EXACT = (
    "sim.messages_per_update", "sim.replayed_per_query",
    "sim.sync_request_bits_per_round", "sim.sync_updates_shipped",
)


def verdict(a: float | None, b: float | None, *, better: str, bound: float | None) -> str:
    """``bound=None``: no gate (``info``); ``bound=0``: must be equal."""
    if a is None or b is None:
        return "unresolved"
    if bound is None:
        return "info"
    if bound == 0:
        return "ok" if a == b else "worse"
    if better == "lower":
        return "worse" if b > a + abs(a) * bound else "ok"
    return "worse" if b < a - abs(a) * bound else "ok"


def rows(
    contract: dict[str, Any], doc_a: dict[str, Any], doc_b: dict[str, Any],
) -> Iterator[tuple[str, str, float | None, float | None, str]]:
    gates: list[tuple[str, str, str, float | None]] = [
        ("end_to_end", m["name"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] + [
        ("per_layer", m["name"], m["better"], 0 if m["name"] in EXACT else None)
        for m in contract["per_layer"]
    ]
    for workload in (w["name"] for w in contract["workloads"]):
        a, b = doc_a["workloads"].get(workload), doc_b["workloads"].get(workload)
        if a is None and b is None:
            continue
        a, b = a or {}, b or {}
        for group, name, better, bound in gates:
            va = a.get(group, {}).get(name)
            vb = b.get(group, {}).get(name)
            if va is None and vb is None and group == "per_layer":
                continue  # off path on both sides
            yield workload, name, va, vb, verdict(va, vb, better=better, bound=bound)
        va, vb = a.get("failed_ops_share"), b.get("failed_ops_share")
        yield workload, "failed_ops_share", va, vb, verdict(va, vb, better="lower", bound=0)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    worse = 0
    for workload, name, va, vb, word in rows(contract, *docs):
        ratio = f"{vb / va:8.3f}x" if va and vb is not None else "        -"
        print(f"{workload:14s} {name:38s} {_fmt(va)} {_fmt(vb)} {ratio}  {word}")
        worse += word == "worse"
    for label, doc in zip("AB", docs):
        for workload, entry in doc["workloads"].items():
            for flag in entry.get("flags", []):
                print(f"note: {label} {workload} flagged {flag}")
    print(f"{worse} worse")
    return 1 if worse else 0


def _fmt(value: float | None) -> str:
    return f"{'null':>12s}" if value is None else f"{value:12.6g}"


if __name__ == "__main__":
    sys.exit(main())
