"""ALG1-PERF — Section VII-C: query replay cost and its optimizations.

The paper: "this algorithm re-executes all past updates each time a new
query is issued.  In an effective implementation, a process can keep
intermediate states [recomputed] only if very late messages arrive."

Series regenerated: replayed updates per query as the log grows, for

* ``naive``       — Algorithm 1 verbatim: O(log length) per query;
* ``checkpoint``  — cached prefix: O(new updates) amortized, ~flat;
* ``undo``        — Karsenty–Beaudouin-Lafon (on the counter): O(1) query;
* ``commutative`` — the arrival-order fold, Section VII-C's apply-on-receipt
  fast path for commuting updates: O(1) query.

Shape asserted: naive grows linearly with the log; every optimization's
per-query replay work stays flat (zero at quiescence).
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.specs import CounterSpec
from repro.specs import counter as C

SPEC = CounterSpec()
SIZES = (100, 400, 1600)

# Each replay named explicitly: the counter commutes, so an unnamed replay
# would be the arrival-order fold (the `fast` variant of
# benchmarks/bench_throughput.py) instead of the machinery measured here.
def replaying(replay: str):
    return lambda p, n: UniversalReplica(
        p, n, SPEC, replay=replay)


FACTORIES = {
    "naive": replaying("naive"),
    "checkpoint": replaying("checkpoint"),
    "undo": replaying("undo"),
    "commutative": replaying("fold"),
}


def build_quiescent(kind: str, n_updates: int) -> Cluster:
    """A 2-process cluster driven to the steady state every measurement
    starts from: ``n_updates`` issued with a mid-run query (as real
    workloads have), the network drained, incremental caches warmed by one
    post-quiescence query.  Returned rather than consumed so callers can
    also read its metrics registry."""
    c = Cluster(2, FACTORIES[kind], seed=1)
    for i in range(n_updates):
        c.update(i % 2, C.inc(1))
        if i == n_updates // 2:
            c.query(0, "read")
    c.run()
    c.query(0, "read")
    return c


def replay_cost(kind: str, n_updates: int) -> int:
    """Replay work charged to one *steady-state* query: the replica has
    answered queries before (so caches are warm where the strategy has
    them) and the network is quiescent."""
    c = build_quiescent(kind, n_updates)
    before = c.metrics.value("repro_replica_replayed_updates_total", pid=0)
    c.query(0, "read")
    return c.metrics.value("repro_replica_replayed_updates_total", pid=0) - before


@pytest.mark.parametrize("kind", list(FACTORIES))
def test_alg1_replay_cost(benchmark, save_result, kind):
    # Timing target: 50 queries against a 1000-update log.
    def fifty_queries():
        c = Cluster(2, FACTORIES[kind], seed=1)
        for i in range(1000):
            c.update(i % 2, C.inc(1))
        c.run()
        out = 0
        for _ in range(50):
            out = c.query(0, "read")
        return out

    assert benchmark(fifty_queries) == 1000

    series = [(size, replay_cost(kind, size)) for size in SIZES]
    rows = [[size, cost] for size, cost in series]
    save_result(
        f"alg1_replay_{kind}",
        format_table(["log length", "updates replayed by one query"], rows,
                     title=f"query replay cost — {kind}"),
    )

    costs = [cost for _, cost in series]
    if kind == "naive":
        # Linear in the log: quadrupling the log quadruples the replay.
        assert costs[0] == SIZES[0] and costs[-1] == SIZES[-1]
    else:
        # Flat: at quiescence nothing new needs replaying.
        assert all(cost == 0 for cost in costs)
