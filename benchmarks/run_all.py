#!/usr/bin/env python
"""Regenerate every paper artifact without the timing harness.

Imports each bench module, runs its core computation once, and prints the
tables to stdout (they are also saved under ``benchmarks/results/``).
Alongside the human-readable tables it writes
``benchmarks/results/BENCH_universal.json`` — one metric dict per bench,
sourced from each run's :class:`repro.obs.metrics.MetricsRegistry` — so CI
and notebooks can diff runs without parsing tables.

Run: ``python benchmarks/run_all.py``
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
import time
from typing import Any, Callable

HERE = pathlib.Path(__file__).parent
RESULTS = HERE / "results"

#: The one sanctioned wall-clock in the repo: a *reference*, held so tests
#: (and ``main(timer=...)``) can inject a fake; the simulation itself runs
#: entirely on virtual time and never touches it.
DEFAULT_TIMER = time.perf_counter


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def save(name: str, text: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.txt").write_text(text + "\n")
    print(text)
    print()


def save_json(name: str, doc: Any) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[machine-readable artifact: benchmarks/results/{name}]")
    print()


def main(timer: Callable[[], float] | None = None) -> None:
    from repro.analysis import format_table

    timer = timer if timer is not None else DEFAULT_TIMER
    #: bench name -> flat metric dict, written to BENCH_universal.json.
    universal: dict[str, dict[str, Any]] = {}

    print("=" * 72)
    print("FIG1 — criterion matrix")
    print("=" * 72)
    m = load("bench_fig1_classification")
    table, _ = m.classify_all()
    save("fig1_classification", table)

    print("=" * 72)
    print("FIG2 — PC but not EC")
    print("=" * 72)
    m = load("bench_fig2_pc_not_ec")
    h, pc, ec = m.classify_fig2()
    rows = [["PC", bool(pc)], ["EC", bool(ec)]]
    lines = [format_table(["criterion", "holds"], rows, title="Fig. 2 gadget")]
    for chain, lin in pc.witness["chain_linearizations"].items():
        pid = chain[0].pid
        lines.append(
            f"w{pid + 1} = " + " . ".join(str(e.label) for e in lin) + " . (ω suffix)"
        )
    save("fig2_pc_not_ec", "\n".join(lines))

    print("=" * 72)
    print("PROP1 — the wait-free dichotomy")
    print("=" * 72)
    m = load("bench_prop1_impossibility")
    for kind in ("fifo", "universal"):
        first, final = m.run_gadget(kind)
        rows = [
            ["first read p0", first[0]], ["first read p1", first[1]],
            ["final read p0", final[0]], ["final read p1", final[1]],
            ["converged", final[0] == final[1]],
        ]
        save(f"prop1_{kind}", format_table(
            ["observable", "value"], rows,
            title=f"Proposition 1 gadget — {kind} implementation"))

    print("=" * 72)
    print("PROP2 — the lattice over random histories")
    print("=" * 72)
    m = load("bench_prop2_lattice")
    combos, violations = m.classify_corpus()
    rows = [["+".join(k) if k else "(none)", c]
            for k, c in sorted(combos.items(), key=lambda kv: -kv[1])]
    save("prop2_lattice", format_table(
        ["criteria satisfied", "histories"], rows,
        title=f"{m.CORPUS_SIZE} random histories, {violations} implication violations"))

    print("=" * 72)
    print("PROP3 — OR-set vs UC-set on the Fig. 1b conflict")
    print("=" * 72)
    m = load("bench_prop3_insert_wins")
    for kind in ("or-set", "uc-set"):
        reads, uc, iw, cc = m.run_case(kind)
        rows = [["converged state", reads[0]],
                ["update consistent", bool(uc)],
                ["insert-wins SEC", bool(iw)],
                ["cache consistent", bool(cc)]]
        save(f"prop3_{kind}", format_table(
            ["property", "value"], rows, title=f"Fig. 1b scenario — {kind}"))

    print("=" * 72)
    print("PROP4 — Algorithm 1 witnesses verify")
    print("=" * 72)
    m = load("bench_prop4_alg1_suc")
    for n in (2, 4, 8):
        h, result = m.run_and_verify(n)
        rows = [["processes", n], ["events", len(h.events)],
                ["witness verified", bool(result)]]
        save(f"prop4_n{n}", format_table(
            ["metric", "value"], rows, title=f"Proposition 4, n={n}"))

    print("=" * 72)
    print("ALG1-PERF — replay cost per query")
    print("=" * 72)
    m = load("bench_alg1_replay_cost")
    for kind in m.FACTORIES:
        rows = [[size, m.replay_cost(kind, size)] for size in m.SIZES]
        save(f"alg1_replay_{kind}", format_table(
            ["log length", "updates replayed by one query"], rows,
            title=f"query replay cost — {kind}"))
        universal[f"alg1_replay_{kind}"] = m.build_quiescent(
            kind, m.SIZES[0]).metrics.flat()

    print("=" * 72)
    print("THROUGHPUT — sustained replay hot path (VII-C, all variants)")
    print("=" * 72)
    m = load("bench_throughput")
    measurements = {kind: m.measure(kind, timer) for kind in m.VARIANTS}
    save("throughput", m.results_table(measurements))
    for kind, result in measurements.items():
        universal[f"throughput_{kind}"] = {
            **result["cluster"].metrics.flat(),
            "ops_per_sec": result["ops_per_sec"],
            "query_p50_us": result["query_p50_us"],
            "query_p99_us": result["query_p99_us"],
            "replayed_per_query": result["replayed_per_query"],
        }

    print("=" * 72)
    print("ALG2-PERF — O(1) memory vs the generic construction")
    print("=" * 72)
    m = load("bench_alg2_memory")
    for kind in ("alg1", "alg2"):
        rows = []
        for size in m.SIZES:
            c = m.build(kind, size)
            r0 = c.replicas[0]
            before = c.metrics.value("repro_replica_replayed_updates_total", pid=0)
            c.query(0, "read", (0,))
            replayed = c.metrics.value("repro_replica_replayed_updates_total", pid=0) - before
            resident = r0.register_count if kind == "alg2" else len(r0.updates)
            rows.append([size, replayed, resident])
        save(f"alg2_memory_{kind}", format_table(
            ["writes", "replayed per read", "resident entries"], rows,
            title=f"shared memory — {kind}"))

    print("=" * 72)
    print("MSG — message complexity")
    print("=" * 72)
    m = load("bench_message_complexity")
    import math

    from repro.analysis import collect_message_stats
    rows = []
    for n, ops in m.SWEEP:
        c = m.measure_cluster(n, ops)
        st = collect_message_stats(c)
        bound = math.log2(max(st.updates * n, 2)) + math.log2(n) + 2
        rows.append([n, ops, st.messages_sent, f"{st.sends_per_update:.0f}",
                     st.max_timestamp_bits, f"{bound:.1f}"])
        universal[f"message_complexity_n{n}_ops{ops}"] = c.metrics.flat()
    save("message_complexity", format_table(
        ["n", "updates", "msgs sent", "sends/update", "max ts bits", "log bound"],
        rows, title="one broadcast per update; timestamps grow logarithmically"))

    print("=" * 72)
    print("SEC6 — the CRDT case study")
    print("=" * 72)
    m = load("bench_crdt_case_study")
    results = m.run_corpus()
    rows = [[name, f"{r['converged']}/{m.RUNS}", f"{r['linearizable']}/{m.RUNS}",
             r["lost"]] for name, r in results.items()]
    save("crdt_case_study", format_table(
        ["system", "converged", "linearizable state", "ops silently lost"],
        rows, title="set case study"))

    print("=" * 72)
    print("AW — the cost of atomicity (ABD vs Algorithm 2)")
    print("=" * 72)
    m = load("bench_attiya_welch")
    rows = []
    for latency in m.LATENCIES:
        rows.append([latency, f"{m.abd_mean_response(latency):.2f}",
                     f"{m.uc_mean_response(latency):.2f}"])
    save("attiya_welch", format_table(
        ["mean latency", "ABD response", "UC-memory response"], rows,
        title="operation response time: atomic register vs Algorithm 2"))

    print("=" * 72)
    print("ABL-GC / ABL-CONV / ABL-GOSSIP / ABL-BATCH — ablations")
    print("=" * 72)
    m = load("bench_ablation_gc")
    _, gc_series = m.run_with_log_series("gc")
    _, naive_series = m.run_with_log_series("naive")
    rows = [[ops, nl, gl] for (ops, nl), (_, gl) in zip(naive_series, gc_series)]
    save("ablation_gc", format_table(
        ["updates issued", "naive log", "gc log"], rows,
        title="stable-prefix GC bounds the update log"))

    m = load("bench_ablation_convergence")
    rows = [[lat, 0.0, f"{m.convergence_time(4, lat):.2f}"] for lat in m.LATENCIES]
    save("ablation_convergence_latency", format_table(
        ["mean latency", "op response time", "convergence time"], rows,
        title="wait-free ops vs convergence, n=4"))
    rows = [[n, f"{m.convergence_time(n, 2.0):.2f}"] for n in m.SCALES]
    save("ablation_convergence_scale", format_table(
        ["processes", "convergence time"], rows,
        title="convergence vs scale, mean latency 2.0"))

    m = load("bench_ablation_gossip")
    _, bits_op, stale_op = m.run_op_based()
    rows = [["op-based (1 bcast/update)", len(bits_op), sum(bits_op) // 8,
             f"{sum(stale_op) / len(stale_op):.1f}"]]
    for period in m.PERIODS:
        _, bits_sb, stale_sb = m.run_state_based(period)
        rows.append([f"state-based, gossip every {period}", len(bits_sb),
                     sum(bits_sb) // 8, f"{sum(stale_sb) / len(stale_sb):.1f}"])
    save("ablation_gossip", format_table(
        ["system", "messages", "total bytes", "avg staleness"], rows,
        title="op-based vs state-based replication"))

    m = load("bench_ablation_batch")
    for name in m.SPECS:
        spec = m.SPECS[name]()
        updates = m.make_updates(name)
        t0 = timer()
        m.loop_fold(spec, updates)
        loop_s = timer() - t0
        t0 = timer()
        spec.apply_batch(spec.initial_state(), updates)
        batch_s = timer() - t0
        save(f"ablation_batch_{name}", format_table(
            ["fold", "seconds"],
            [["per-update apply", f"{loop_s:.4f}"],
             ["apply_batch", f"{batch_s:.4f}"],
             ["speedup", f"{loop_s / batch_s:.1f}x" if batch_s else "inf"]],
            title=f"replay fold, {m.LOG_LEN} updates — {name}"))

    print("=" * 72)
    print("SYNC — anti-entropy request size: v1 known-set vs v2 digest")
    print("=" * 72)
    m = load("bench_sync_scalability")
    c, series = m.run_payload_series()
    rows = [[ops, v1, v2] for ops, v1, v2 in series]
    save("sync_scalability", format_table(
        ["updates issued", "v1 request bits", "v2 request bits"], rows,
        title="anti-entropy request size: known-set (v1) vs digest (v2)"))
    universal["sync_scalability"] = c.metrics.flat()
    c, pages = m.run_paged_repair()
    save("sync_pages", format_table(
        ["page", "entries"], [[i, p] for i, p in enumerate(pages)],
        title=f"sync-resp pages during crash repair (bound {m.PAGE_SIZE})"))
    universal["sync_paged_repair"] = c.metrics.flat()

    print("=" * 72)
    print("FAULT — crash→recover→converge under adversarial channels")
    print("=" * 72)
    m = load("bench_fault_recovery")
    rows = []
    for name, cls, kwargs in m.SCENARIOS:
        for relay in (False, True):
            c, r = m.run_scenario(cls, kwargs, relay=relay)
            rows.append([
                name, "on" if relay else "off",
                "yes" if r.converged else "NO",
                f"{r.time_to_agreement:.2f}" if r.time_to_agreement is not None
                else "-",
                r.steps, max(r.final_divergence.values(), default=0),
            ])
            if relay:
                universal[f"fault_recovery_{name}"] = c.metrics.flat()
    save("fault_recovery", format_table(
        ["network", "relay", "converged", "t_agree", "deliveries",
         "max log divergence"],
        rows,
        title="crash→recover→converge under adversarial channels "
              f"(n={m.N}, {m.OPS} updates, seed={m.SEED})"))

    print("=" * 72)
    print("STOR — storage engine: journal appends vs full-image rewrites")
    print("=" * 72)
    m = load("bench_storage")
    wc = m.write_cost()
    save("storage_write_cost", format_table(
        ["updates", "journal B/flush", "snapshot B/flush"],
        [[i, jb, sb] for (i, jb), (_, sb) in zip(
            wc["journal_bytes_per_flush"], wc["snapshot_bytes_per_flush"])],
        title="bytes written per flush: incremental journal vs "
              f"full-image rewrite ({m.WRITE_OPS} updates)"))
    universal["storage_write_cost"] = {
        k: wc[k] for k in ("journal_first", "journal_last",
                           "snapshot_first", "snapshot_last")
    }
    rec = m.recovery_scale()
    save("storage_recovery", format_table(
        ["metric", "value"],
        [[k, rec[k]] for k in sorted(rec)],
        title=f"recovery from a {rec['ops']}-update journal "
              "(digest chain verified end to end)"))
    universal["storage_recovery"] = rec

    print("=" * 72)
    print("OBS — traced chaos run, machine-readable report")
    print("=" * 72)
    from repro.obs.report import run_report
    from repro.obs.scenario import chaos_scenario

    cluster = chaos_scenario(seed=0)
    doc = run_report(cluster)
    save("obs_chaos", format_table(
        ["metric", "value"],
        [["converged", doc["convergence"]["converged"]],
         ["time to agreement", doc["convergence"]["time_to_agreement"]],
         ["messages sent", doc["messages"]["sent"]],
         ["messages lost", doc["messages"]["lost"]],
         ["recoveries", doc["cluster"]["recoveries"]],
         ["total replayed", doc["replay"]["total_replayed"]],
         ["trace records", doc["trace"]["records"]]],
        title="chaos scenario (crash + recover + anti-entropy, lossy net)"))
    save_json("run_report.json", doc)
    universal["obs_chaos"] = cluster.metrics.flat()

    print("=" * 72)
    print("NET — asyncio backend under simulated users (load harness)")
    print("=" * 72)
    m = load("load_harness")
    net = m.run_load(users=30, duration=1.0, ramp=0.5)
    s = net["summary"]
    save("net_load", format_table(
        ["metric", "value"],
        [["users", net["config"]["users"]],
         ["replicas", net["config"]["replicas"]],
         ["ops", s["ops"]],
         ["ops/sec", s["ops_per_sec"]],
         ["p50 latency (ms)", s["p50_ms"]],
         ["p99 latency (ms)", s["p99_ms"]],
         ["conv lag p99 (ms)", s["convergence_lag_p99_ms"]],
         ["errors", s["errors"]],
         ["converged", s["converged"]]],
        title="HTTP front-end, closed-loop users, ramped arrival"))
    universal["net_load"] = {
        **net["metrics"],
        "ops_per_sec": s["ops_per_sec"],
        "p50_ms": s["p50_ms"],
        "p99_ms": s["p99_ms"],
        "convergence_lag_p99_ms": s["convergence_lag_p99_ms"],
        "errors": s["errors"],
        "converged": bool(s["converged"]),
    }

    print("=" * 72)
    print("NET-SOAK — wall-clock time-series (ops/sec, latency, conv lag)")
    print("=" * 72)
    from repro.obs.report import validate_net_report

    soak = m.run_load(users=30, duration=3.0, ramp=0.5, soak=True)
    problems = validate_net_report(soak)
    if problems:
        raise RuntimeError(f"net soak report invalid: {problems}")
    ss = soak["summary"]
    save("net_soak", format_table(
        ["t", "ops/sec", "p50 ms", "p99 ms", "conv lag p99 ms", "task errs"],
        [[row["t"], row["ops_per_sec"], row["p50_ms"], row["p99_ms"],
          row["convergence_lag_p99_ms"], row["task_errors"]]
         for row in soak["series"]],
        title=f"soak: {ss['ops']} ops, p99 {ss['p99_ms']} ms, "
              f"conv-lag p99 {ss['convergence_lag_p99_ms']} ms, "
              f"converged={ss['converged']}"))
    save_json("net_soak_report.json", soak)
    universal["net_soak"] = {
        **soak["metrics"],
        "ops_per_sec": ss["ops_per_sec"],
        "p50_ms": ss["p50_ms"],
        "p99_ms": ss["p99_ms"],
        "convergence_lag_p50_ms": ss["convergence_lag_p50_ms"],
        "convergence_lag_p99_ms": ss["convergence_lag_p99_ms"],
        "task_errors": ss["task_errors"],
        "errors": ss["errors"],
        "converged": bool(ss["converged"]),
        "series_windows": len(soak["series"]),
    }

    save_json("BENCH_universal.json", {
        "format": "repro-bench-metrics-v1",
        "benches": universal,
    })
    print("all artifacts regenerated under benchmarks/results/")


def cli(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default=None, metavar="PREFIX",
        help="cProfile the whole run; writes PREFIX.pstats and "
             "PREFIX.collapsed (flamegraph.pl / speedscope input)")
    args = parser.parse_args(argv)
    from repro.obs.profiling import profiled

    with profiled(args.profile):
        main()
    return 0


if __name__ == "__main__":
    sys.exit(cli())
