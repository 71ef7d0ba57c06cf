"""Arithmetic the ledger reports with: percentiles, windows, the quiet level.

Kept free of I/O and of any ``repro`` import so the tier-1 tests can pin
every number the benchmark derives from raw samples.
"""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) with linear interpolation
    between closest ranks; raises on an empty sample so a workload that
    recorded nothing cannot report a latency."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def windows(values: Sequence[float], parts: int) -> list[list[float]]:
    """Split ``values`` (in arrival order) into ``parts`` contiguous
    windows whose sizes differ by at most one; early windows take the
    remainder."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    size, extra = divmod(len(values), parts)
    out, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        out.append(list(values[start:end]))
        start = end
    return out


def window_percentiles(values: Sequence[float], parts: int, q: float) -> list[float]:
    """The ``q``-quantile of each of ``parts`` contiguous windows — how a
    latency drifts *within* one run."""
    return [percentile(w, q) for w in windows(values, parts)]


def quiet_level(values: Sequence[float]) -> float:
    """The lower quartile of per-window (or per-repetition) figures.

    On a shared two-core sandbox interference arrives in bursts of a few
    seconds and only ever *adds* time, so within one run the windows are
    a quiet level plus upward excursions.  The lower quartile sits on the
    quiet level while up to three quarters of the windows are disturbed;
    a change to the code moves every window and so moves it one for one.
    """
    return percentile(values, 0.25)
