"""The net-smoke scenario: boot, load, crash, recover, converge.

One self-contained integration check for the asyncio backend, runnable
locally (``make net-smoke`` / ``python -m repro.net smoke``) and in CI:

1. boot a 3-replica :class:`~repro.net.harness.LocalCluster` of the set
   replicas ``serve`` runs by default, with durable images in a temp
   directory;
2. drive a few hundred operations through the *HTTP* front-ends
   (round-robin across replicas, inserts + deletes + reads);
3. kill one replica mid-run (sockets die, unflushed log tail lost) and
   keep operating on the survivors;
4. restart it from its on-disk image and wait for anti-entropy to
   re-converge the cluster;
5. check the converged state against the oracle.

The workload keeps its oracle exact under concurrency: every insert uses
a distinct value and every delete targets a value inserted earlier *at
the same replica* (so the delete's Lamport stamp provably exceeds the
insert's), making the final set independent of the SUC replay order.

The run emits a ``repro-net-smoke-v1`` JSON report (ops, throughput,
convergence latency, recovery details, the metrics registry) that CI
uploads as an artifact.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from typing import Any

from repro.net.__main__ import make_factory
from repro.net.harness import LocalCluster

REPORT_FORMAT = "repro-net-smoke-v1"


async def run_smoke(
    *,
    ops: int = 200,
    replicas: int = 3,
    sync_interval: float = 0.05,
    settle_timeout: float = 15.0,
    data_dir: str | None = None,
    trace_out: str | None = None,
) -> dict[str, Any]:
    """Run the scenario; returns the report document (``ok`` = verdict).

    With ``trace_out`` the cluster runs traced and the merged multi-node
    Perfetto timeline is written there — crash and recovery included, so
    the file shows one update's spans hopping nodes around the kill.
    """
    tmp = None
    if data_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-net-smoke-")
        data_dir = tmp.name
    cluster = LocalCluster(
        replicas,
        make_factory("set"),
        data_dir=data_dir,
        sync_interval=sync_interval,
        trace=trace_out is not None,
    )
    report: dict[str, Any] = {"format": REPORT_FORMAT, "ok": False,
                              "replicas": replicas, "ops_requested": ops}
    try:
        await cluster.start()
        clients = {pid: cluster.client(pid) for pid in range(replicas)}
        expected: set[int] = set()
        inserted_at: dict[int, list[int]] = {pid: [] for pid in range(replicas)}
        issued = reads = 0
        next_value = 0

        async def one_op(i: int, pids: list[int]) -> None:
            nonlocal issued, reads, next_value
            pid = pids[i % len(pids)]
            if i % 5 == 4 and inserted_at[pid]:
                victim = inserted_at[pid].pop()
                await clients[pid].update("delete", victim)
                expected.discard(victim)
            elif i % 7 == 6:
                await clients[pid].query("read")
                reads += 1
            else:
                value = next_value
                next_value += 1
                await clients[pid].update("insert", value)
                expected.add(value)
                inserted_at[pid].append(value)
            issued += 1

        # Phase 1: everyone serves traffic.  (repro.net is a sanctioned
        # wall-clock domain: real transport, real clock.)
        start = time.perf_counter()
        for i in range(ops):
            await one_op(i, list(range(replicas)))
        phase1 = time.perf_counter() - start

        # Phase 2: crash the last replica mid-run; survivors keep going.
        victim = replicas - 1
        await clients[victim].close()
        cluster.kill(victim)
        survivors = [p for p in range(replicas) if p != victim]
        for i in range(ops, ops + max(ops // 3, 20)):
            await one_op(i, survivors)

        # Phase 3: recover from the on-disk image and re-converge.
        recover_start = time.perf_counter()
        node = await cluster.restart(victim)
        await cluster.settle(timeout=settle_timeout)
        recover_time = time.perf_counter() - recover_start

        states = cluster.states()
        converged = cluster.converged()
        correct = all(s == expected for s in states.values())
        report.update(
            ok=bool(converged and correct),
            ops_issued=issued,
            reads=reads,
            ops_per_sec=round(ops / phase1, 1) if phase1 > 0 else None,
            converged=converged,
            state_size=len(expected),
            state_correct=correct,
            recovery={
                "victim": victim,
                "restored_log": node.core.log_length,
                "seconds_to_convergence": round(recover_time, 3),
            },
            metrics=cluster.registry.flat(),
        )
        if trace_out is not None:
            doc = cluster.merged_trace()
            # One-shot write after the workload is done; nothing else is
            # being served on the loop.
            with open(trace_out, "w") as fh:  # uqlint: disable=ASY304 -- post-run write
                json.dump(doc, fh)
            report["trace"] = {
                "out": trace_out,
                "events": sum(
                    1 for e in doc["traceEvents"] if e.get("ph") != "M"
                ),
                "tracers_merged": len(cluster.tracers),
            }
        return report
    except (TimeoutError, RuntimeError, OSError) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report
    finally:
        await cluster.stop()
        if tmp is not None:
            tmp.cleanup()


def main(argv: list[str] | None = None) -> int:
    """CLI entry (``python -m repro.net smoke``): 0 iff the run passed."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.net smoke",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--sync-interval", type=float, default=0.05)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout only)")
    parser.add_argument("--trace-out", default=None,
                        help="run traced; write the merged Perfetto trace here")
    args = parser.parse_args(argv)
    report = asyncio.run(
        run_smoke(ops=args.ops, replicas=args.replicas,
                  sync_interval=args.sync_interval, trace_out=args.trace_out)
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if report.get("ok") else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
