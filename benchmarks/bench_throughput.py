"""THROUGHPUT — Section VII-C: the replay hot path, end to end.

Where :mod:`bench_alg1_replay_cost` characterizes a single steady-state
query, this bench drives the *sustained* workload the optimizations were
built for: a 2-process cluster issuing updates with a query every
``QUERY_EVERY`` operations (the network drained between rounds, as a
live system would be).  For each variant it reports the replayed updates
per query: update-log entries folded to answer one query, averaged over
the run (the paper's replay amplification).  The count is a pure
function of the seed, so the regenerated ``throughput_<variant>.txt`` is
pinned byte-identical; pytest-benchmark times the run.

Variants:

* ``legacy``      — the checkpoint replay: incremental checkpoint-tree
                    replay on its own;
* ``fast``        — the arrival-order fold replay, the default on the
                    counter (its updates commute);
* ``naive``       — Algorithm 1 verbatim (full replay per query);
* ``commutative`` — the log-free ``CommutativeReplica`` upper bound.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest

from repro.analysis import format_table
from repro.core.commutative import CommutativeReplica
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.specs import CounterSpec
from repro.specs import counter as C

SPEC = CounterSpec()
N_PROCS = 2
N_OPS = 400
QUERY_EVERY = 10

VARIANTS: dict[str, Callable[[int, int], Any]] = {
    "legacy": lambda p, n: UniversalReplica(
        p, n, SPEC, replay="checkpoint", track_witness=False),
    "fast": lambda p, n: UniversalReplica(p, n, SPEC, track_witness=False),
    "naive": lambda p, n: UniversalReplica(
        p, n, SPEC, replay="naive", track_witness=False),
    "commutative": lambda p, n: CommutativeReplica(p, n, SPEC),
}


def measure(kind: str) -> dict[str, Any]:
    """Drive the workload once and reduce it to the reported counts.

    The schedule is ``bench_alg1_replay_cost``'s quiescent build with the
    mid-run query generalized to one query per ``QUERY_EVERY`` updates:
    issue a round, drain the network, query replica 0.
    """
    c = Cluster(N_PROCS, VARIANTS[kind], seed=1)
    queries = 0
    for i in range(N_OPS):
        c.update(i % N_PROCS, C.inc(1))
        if (i + 1) % QUERY_EVERY == 0:
            c.run()
            c.query(0, "read")
            queries += 1
    c.run()
    final = c.query(0, "read")
    queries += 1
    replayed = c.metrics.total("repro_replica_replayed_updates_total")
    return {
        "kind": kind,
        "final": final,
        "queries": queries,
        "replayed_per_query": replayed / queries,
    }


def results_table(measurements: dict[str, dict[str, Any]]) -> str:
    rows = [
        [kind, f"{m['replayed_per_query']:.1f}"]
        for kind, m in measurements.items()
    ]
    return format_table(
        ["variant", "replayed/query"],
        rows,
        title=f"replay hot path — {N_OPS} updates, query every {QUERY_EVERY}",
    )


@pytest.mark.parametrize("kind", list(VARIANTS))
def test_throughput_workload(benchmark, save_result, kind):
    m = benchmark(lambda: measure(kind))
    assert m["final"] == N_OPS  # every variant converges to the same counter
    save_result(f"throughput_{kind}", results_table({kind: m}))


def test_replay_shape(benchmark):
    # The fast path replays nothing, legacy replays ~one round per query
    # (so it replays at least ten times what the fast path does), naive
    # replays the log.
    m = benchmark(lambda: {kind: measure(kind) for kind in VARIANTS})
    assert m["fast"]["replayed_per_query"] == 0
    assert m["commutative"]["replayed_per_query"] == 0
    assert m["legacy"]["replayed_per_query"] >= QUERY_EVERY / 2
    assert m["naive"]["replayed_per_query"] > m["legacy"]["replayed_per_query"]
