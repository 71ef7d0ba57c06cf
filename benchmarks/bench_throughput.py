"""THROUGHPUT — Section VII-C: the replay hot path, end to end.

Where :mod:`bench_alg1_replay_cost` characterizes a single steady-state
query, this bench drives the *sustained* workload the optimizations were
built for: a 2-process cluster issuing updates with a query every
``QUERY_EVERY`` operations (the network drained between rounds, as a
live system would be).  For each variant it reports

* ops/sec             — updates + queries completed per wall second;
* query p50 / p99     — per-query latency percentiles (µs);
* replayed per query  — update-log entries folded to answer one query,
                        averaged over the run (the paper's replay
                        amplification, and the regression gate).

Variants:

* ``legacy``      — the checkpoint replay: incremental checkpoint-tree
                    replay on its own;
* ``fast``        — the arrival-order fold replay, the default on the
                    counter (its updates commute);
* ``naive``       — Algorithm 1 verbatim (full replay per query);
* ``commutative`` — the log-free ``CommutativeReplica`` upper bound.

``python benchmarks/bench_throughput.py`` prints the table;
``--check`` compares replayed-per-query against
``benchmarks/baselines/throughput.json`` and exits non-zero when the
fast path regresses — CI's ``bench-throughput`` smoke step.  Only the
deterministic replay counts are gated; wall-clock numbers are reported
but never asserted against.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
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
WORKLOAD = "alg1_replay_checkpoint"
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "throughput.json"

#: Wall-clock *reference* (never called by the simulation, which runs on
#: virtual time): held so tests and ``run_all.py`` can inject a fake.
DEFAULT_TIMER = time.perf_counter

VARIANTS: dict[str, Callable[[int, int], Any]] = {
    "legacy": lambda p, n: UniversalReplica(
        p, n, SPEC, replay="checkpoint", track_witness=False),
    "fast": lambda p, n: UniversalReplica(p, n, SPEC, track_witness=False),
    "naive": lambda p, n: UniversalReplica(
        p, n, SPEC, replay="naive", track_witness=False),
    "commutative": lambda p, n: CommutativeReplica(p, n, SPEC),
}


def run_workload(
    kind: str, timer: Callable[[], float] | None = None
) -> dict[str, Any]:
    """Drive the workload once; returns the cluster plus raw measurements.

    The schedule is ``bench_alg1_replay_cost``'s quiescent build with the
    mid-run query generalized to one query per ``QUERY_EVERY`` updates:
    issue a round, drain the network, query replica 0.
    """
    timer = timer if timer is not None else DEFAULT_TIMER
    c = Cluster(N_PROCS, VARIANTS[kind], seed=1)
    latencies: list[float] = []
    queries = 0
    final = 0
    t0 = timer()
    for i in range(N_OPS):
        c.update(i % N_PROCS, C.inc(1))
        if (i + 1) % QUERY_EVERY == 0:
            c.run()
            q0 = timer()
            final = c.query(0, "read")
            latencies.append(timer() - q0)
            queries += 1
    c.run()
    q0 = timer()
    final = c.query(0, "read")
    latencies.append(timer() - q0)
    queries += 1
    elapsed = timer() - t0
    return {
        "cluster": c,
        "final": final,
        "queries": queries,
        "elapsed": elapsed,
        "latencies": latencies,
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[pos]


def measure(kind: str, timer: Callable[[], float] | None = None) -> dict[str, Any]:
    """One run of ``kind`` reduced to the reported metrics."""
    raw = run_workload(kind, timer)
    c = raw["cluster"]
    replayed = c.metrics.total("repro_replica_replayed_updates_total")
    lat = sorted(raw["latencies"])
    elapsed = raw["elapsed"]
    ops = N_OPS + raw["queries"]
    return {
        "workload": WORKLOAD,
        "kind": kind,
        "final": raw["final"],
        "ops": ops,
        "queries": raw["queries"],
        "replayed_total": replayed,
        "replayed_per_query": replayed / raw["queries"],
        "ops_per_sec": ops / elapsed if elapsed > 0 else 0.0,
        "query_p50_us": _percentile(lat, 0.50) * 1e6,
        "query_p99_us": _percentile(lat, 0.99) * 1e6,
        "cluster": c,
    }


def results_table(measurements: dict[str, dict[str, Any]]) -> str:
    rows = [
        [
            kind,
            f"{m['ops_per_sec']:.0f}",
            f"{m['query_p50_us']:.1f}",
            f"{m['query_p99_us']:.1f}",
            f"{m['replayed_per_query']:.1f}",
        ]
        for kind, m in measurements.items()
    ]
    return format_table(
        ["variant", "ops/sec", "query p50 µs", "query p99 µs",
         "replayed/query"],
        rows,
        title=f"replay hot path — {N_OPS} updates, query every {QUERY_EVERY}",
    )


# -- the regression gate ---------------------------------------------------------------


def load_baseline(path: pathlib.Path = BASELINE_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


def check_against_baseline(
    measurements: dict[str, dict[str, Any]], baseline: dict[str, Any]
) -> list[str]:
    """Deterministic regression checks; returns human-readable problems.

    Two gates, both on replay counts (wall time is too noisy for CI):
    the fast path must stay within ``tolerance`` of its recorded
    replayed-per-query, and the legacy-to-fast reduction factor must stay
    at or above ``min_reduction_factor`` (the issue's ≥10x requirement).
    """
    problems: list[str] = []
    fast = measurements["fast"]["replayed_per_query"]
    legacy = measurements["legacy"]["replayed_per_query"]
    tolerance = baseline["tolerance"]
    ceiling = baseline["replayed_per_query_fast"] + tolerance
    if fast > ceiling:
        problems.append(
            f"fast path replays {fast:.2f} updates/query, above the "
            f"recorded baseline {baseline['replayed_per_query_fast']:.2f} "
            f"(+{tolerance} tolerance)"
        )
    reduction = legacy / max(fast, tolerance)
    if reduction < baseline["min_reduction_factor"]:
        problems.append(
            f"fast path reduces replay only {reduction:.1f}x vs legacy "
            f"({legacy:.2f} -> {fast:.2f} updates/query); the gate requires "
            f">={baseline['min_reduction_factor']:.0f}x"
        )
    if legacy < baseline["replayed_per_query_legacy"] / 2:
        problems.append(
            f"legacy comparator replays only {legacy:.2f} updates/query "
            f"(recorded: {baseline['replayed_per_query_legacy']:.2f}); the "
            "workload no longer exercises replay — re-baseline"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="gate replayed-per-query against baselines/throughput.json",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PREFIX",
        help="cProfile the measurement loop; writes PREFIX.pstats and "
             "PREFIX.collapsed (flamegraph.pl / speedscope input)",
    )
    opts = parser.parse_args(argv)
    from repro.obs.profiling import profiled

    with profiled(opts.profile):
        measurements = {kind: measure(kind) for kind in VARIANTS}
    print(results_table(measurements))
    if not opts.check:
        return 0
    problems = check_against_baseline(measurements, load_baseline())
    for problem in problems:
        print(f"REGRESSION: {problem}")
    if not problems:
        print(
            "bench-throughput gate ok: fast path replays "
            f"{measurements['fast']['replayed_per_query']:.2f}/query "
            f"vs legacy {measurements['legacy']['replayed_per_query']:.2f}"
        )
    return 1 if problems else 0


# -- pytest shape checks ---------------------------------------------------------------


def _fake_timer() -> Callable[[], float]:
    tick = [0.0]

    def timer() -> float:
        tick[0] += 1e-4
        return tick[0]

    return timer


@pytest.mark.parametrize("kind", list(VARIANTS))
def test_throughput_workload(benchmark, save_result, kind):
    m = benchmark(lambda: measure(kind))
    assert m["final"] == N_OPS  # every variant converges to the same counter
    save_result(
        f"throughput_{kind}",
        results_table({kind: m}),
    )


def test_replay_shape():
    # Deterministic replay counts with a fake timer: the fast path replays
    # nothing, legacy replays ~one round per query, naive replays the log.
    timer = _fake_timer()
    m = {kind: measure(kind, timer) for kind in VARIANTS}
    assert m["fast"]["replayed_per_query"] == 0
    assert m["commutative"]["replayed_per_query"] == 0
    assert m["legacy"]["replayed_per_query"] >= QUERY_EVERY / 2
    assert m["naive"]["replayed_per_query"] > m["legacy"]["replayed_per_query"]


def test_gate_passes_on_current_tree():
    timer = _fake_timer()
    measurements = {kind: measure(kind, timer) for kind in ("legacy", "fast")}
    assert check_against_baseline(measurements, load_baseline()) == []


def test_gate_detects_fast_path_regression():
    baseline = load_baseline()
    regressed = {
        "legacy": {"replayed_per_query": baseline["replayed_per_query_legacy"]},
        "fast": {"replayed_per_query": baseline["replayed_per_query_legacy"]},
    }
    problems = check_against_baseline(regressed, baseline)
    assert problems and any("fast path" in p for p in problems)


def test_gate_detects_hollow_workload():
    baseline = load_baseline()
    hollow = {
        "legacy": {"replayed_per_query": 0.0},
        "fast": {"replayed_per_query": 0.0},
    }
    problems = check_against_baseline(hollow, baseline)
    assert any("re-baseline" in p for p in problems)


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
