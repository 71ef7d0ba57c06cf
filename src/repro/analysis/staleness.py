"""Staleness metrics: how out-of-date are reads, and for how long?

Update consistency allows reads to "return out-dated values" — these
metrics quantify the debt.  For a finished run with witness metadata:

* **version staleness** of a query: how many updates, already issued
  somewhere at query time, the query did not see;
* **time staleness** of a query: the age of the oldest such missing
  update (how long the replica has been behind);
* **inclusion latency** of an update: time from issue until every correct
  replica's queries see it (∞ if some replica never queried after it —
  reported as the drain time bound).

Used by the convergence ablation and available to applications that want
SLO-style reporting on simulated deployments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.cluster import Trace


@dataclass(frozen=True, slots=True)
class StalenessReport:
    """Aggregates over all queries of a trace."""

    queries: int
    stale_queries: int
    max_version_lag: int
    mean_version_lag: float
    max_time_lag: float
    mean_time_lag: float

    def fresh_fraction(self) -> float:
        """Share of queries that saw every update issued so far."""
        if self.queries == 0:
            return 1.0
        return 1.0 - self.stale_queries / self.queries


def staleness_report(trace: Trace) -> StalenessReport:
    """Compute version/time staleness over every query in the trace.

    Requires witness metadata (:meth:`~repro.sim.cluster.Trace.witness_ids`).
    """
    timestamps, visible = trace.witness_ids()
    issued: dict[tuple[int, int], float] = {}
    version_lags: list[int] = []
    time_lags: list[float] = []
    # Walk in record order: updates register themselves, queries compare.
    for r in trace.records:
        if r.is_update:
            issued[timestamps[r.eid]] = r.time
            continue
        seen = visible[r.eid]
        missing = [uid for uid in issued if uid not in seen]
        version_lags.append(len(missing))
        if missing:
            oldest = min(issued[uid] for uid in missing)
            time_lags.append(r.time - oldest)
        else:
            time_lags.append(0.0)
    if not version_lags:
        return StalenessReport(0, 0, 0, 0.0, 0.0, 0.0)
    v = np.asarray(version_lags)
    t = np.asarray(time_lags)
    return StalenessReport(
        queries=len(version_lags),
        stale_queries=int((v > 0).sum()),
        max_version_lag=int(v.max()),
        mean_version_lag=float(v.mean()),
        max_time_lag=float(t.max()),
        mean_time_lag=float(t.mean()),
    )


def inclusion_latencies(trace: Trace) -> dict[tuple[int, int], float]:
    """Per update: time until *every* process that queried afterwards had
    it visible (update uid -> latency).  Updates never subsequently
    covered by a query at some process are omitted (unknowable from the
    trace)."""
    timestamps, visible = trace.witness_ids()
    issued: dict[tuple[int, int], float] = {}
    first_seen_everywhere: dict[tuple[int, int], float] = {}
    pids = {r.pid for r in trace.records}
    # For each update, track which pids have confirmed visibility.
    confirmations: dict[tuple[int, int], set[int]] = {}
    for r in trace.records:
        if r.is_update:
            uid = timestamps[r.eid]
            issued[uid] = r.time
            confirmations[uid] = {r.pid}  # issuer sees its own update
            continue
        for uid in visible[r.eid]:
            if uid in confirmations and uid not in first_seen_everywhere:
                confirmations[uid].add(r.pid)
                if confirmations[uid] >= pids:
                    first_seen_everywhere[uid] = r.time - issued[uid]
    return first_seen_everywhere
