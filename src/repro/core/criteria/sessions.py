"""Session guarantees, checked constructively on simulator traces.

The classic per-client guarantees [Terry et al., "Session Guarantees for
Weakly Consistent Replicated Data"] decompose the PRAM family the paper's
Section IV builds on:

* **read your writes** (RYW) — a process's query sees all of that
  process's earlier updates;
* **monotonic reads** (MR) — a process's successive queries see
  non-shrinking update sets;
* **monotonic writes** (MW) — a process's updates take effect everywhere
  in the order it issued them;
* **writes follow reads** (WFR) — an update is ordered after the updates
  its issuer had read.

On traces with per-query visibility metadata (what Algorithm-1-family
replicas record) RYW/MR are direct set checks; MW/WFR are checks on the
agreed arbitration (timestamps).  Algorithm 1 satisfies all four by
construction (log growth + Lamport causality), which the tests assert;
systems without per-process logs (e.g. a replica answering from a remote
cache) would fail them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.criteria.base import CheckResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids a cycle:
    # the sim layer imports the criteria package)
    from repro.sim.cluster import Trace


def read_your_writes(trace: "Trace") -> CheckResult:
    """Every query sees all earlier updates of its own process."""
    name = "RYW"
    timestamps, visible = trace.witness_ids()
    own: dict[int, set] = {}
    for r in trace.records:
        if r.is_update:
            own.setdefault(r.pid, set()).add(timestamps[r.eid])
        else:
            missing = own.get(r.pid, set()) - visible[r.eid]
            if missing:
                return CheckResult(
                    False, name,
                    reason=f"query {r.eid} at p{r.pid} misses own updates {missing}",
                )
    return CheckResult(True, name)


def monotonic_reads(trace: "Trace") -> CheckResult:
    """Per process, successive queries see non-shrinking update sets."""
    name = "MR"
    _, visible = trace.witness_ids()
    last: dict[int, frozenset] = {}
    for r in trace.records:
        if r.is_update:
            continue
        seen = visible[r.eid]
        prev = last.get(r.pid)
        if prev is not None and not prev <= seen:
            return CheckResult(
                False, name,
                reason=f"query {r.eid} at p{r.pid} lost updates {set(prev - seen)}",
            )
        last[r.pid] = seen
    return CheckResult(True, name)


def monotonic_writes(trace: "Trace") -> CheckResult:
    """A process's updates are arbitration-ordered as issued."""
    name = "MW"
    timestamps, _ = trace.witness_ids()
    last: dict[int, tuple] = {}
    for r in trace.records:
        if not r.is_update:
            continue
        ts = timestamps[r.eid]
        prev = last.get(r.pid)
        if prev is not None and not prev < ts:
            return CheckResult(
                False, name,
                reason=f"update {r.eid} at p{r.pid} stamped {ts} before {prev}",
            )
        last[r.pid] = ts
    return CheckResult(True, name)


def writes_follow_reads(trace: "Trace") -> CheckResult:
    """An update is arbitration-ordered after every update its issuer had
    already seen (Lamport causality in the timestamps)."""
    name = "WFR"
    timestamps, visible = trace.witness_ids()
    seen: dict[int, frozenset] = {}
    for r in trace.records:
        if r.is_update:
            ts = timestamps[r.eid]
            for dep in seen.get(r.pid, frozenset()):
                if not dep < ts:
                    return CheckResult(
                        False, name,
                        reason=(
                            f"update {r.eid} at p{r.pid} stamped {ts} not "
                            f"after read dependency {dep}"
                        ),
                    )
        else:
            seen[r.pid] = visible[r.eid]
    return CheckResult(True, name)


def check_all_sessions(trace: "Trace") -> dict[str, CheckResult]:
    """All four guarantees at once."""
    return {
        "RYW": read_your_writes(trace),
        "MR": monotonic_reads(trace),
        "MW": monotonic_writes(trace),
        "WFR": writes_follow_reads(trace),
    }
