"""The four named workloads of the perf ledger.

Each workload runs the cluster and its load generator **in one process on
one asyncio loop** (on two cores, separate node processes would measure
the scheduler) with at most two client connections, checks its own
outputs, and returns a :class:`PassResult`.  ``src/`` is driven only
through its public surface — ``LocalCluster``, ``make_factory``,
``HttpClient.update/query`` and ``repro.sim.Cluster`` — so a refactor
behind those names cannot break the benchmark.

Why these four (the ``why`` lines of ``BENCHMARK.json`` in full):

``mesh-steady``
    The base client path on a healthy 3-node mesh: HTTP, framing, the
    wire codec, the protocol core and TCP do nearly all the work;
    anti-entropy, replay and storage do almost none.  Frame batching,
    coalesced broadcast or codec work shows here and nowhere else.
``mesh-degraded``
    Partition and heal.  One peer is dead through an 8000-entry preload
    and the timed loop, so the stable prefix cannot be collected and
    every per-op O(log) cost dominates (journal key walk, digest
    construction, long-log replay); then the peer restarts and must
    catch up.  A "flat per-op cost" change must move this workload and
    leave ``mesh-steady`` alone.
``solo-durable``
    The single-node baseline: HTTP + core + storage with no framing, no
    wire codec and no anti-entropy partner, on a 12000-entry retained
    log.  It uses the journal both ways — writes in the loop, reads at
    every cold start — so a format or group-commit change that buys
    write speed with recovery time or bytes shows.
``sim-protocol``
    No sockets, timers or disk: the protocol core, naive replay and
    non-GC anti-entropy on the deterministic simulator, where counts
    repeat exactly and time is CPU only.  A ``net``/``storage`` change
    must leave it unmoved; a replica or sync-digest change must move it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .loadgen import (
    Op,
    OpRecord,
    issue,
    mesh_ops,
    open_loop,
    preload_values,
    sim_ops,
    warmup_ops,
)
from .spans import SpanRecorder
from .stats import median, percentile, quiet_level, window_percentiles

from repro.net.__main__ import make_factory
from repro.net.harness import LocalCluster
from repro.sim import Cluster
from repro.specs import set_spec

SYNC_INTERVAL = 0.1
#: values the traced pass submits directly (outside every other range)
DIRECT_BASE = 10_000_000


@dataclass(frozen=True)
class MeshSpec:
    """Sizes of one mesh workload.  The tier-1 smoke test shrinks them
    with ``dataclasses.replace``; the benchmark never does."""

    name: str
    nodes: int
    gc: bool
    #: peers killed during set-up and kept dead through the timed loop
    dead: tuple[int, ...]
    preload: int
    #: quiet time between set-up and the loop (not part of ``setup_s``)
    pause: float
    rate: float
    #: the node each client connection talks to
    lanes: tuple[int, ...]
    warmup: int
    #: set-up repetitions (``setup_s`` is their median)
    setups: int = 3
    #: kill/restart repetitions when the victim was alive through the loop
    rejoins: int = 5
    cold_starts: int = 5
    direct_submits: int = 500


@dataclass(frozen=True)
class SimSpec:
    name: str = "sim-protocol"
    nodes: int = 3
    ops: int = 6000
    space: int = 3000
    drain_every: int = 10
    sync_every: int = 200
    warmup_ops: int = 3000
    setups: int = 3
    min_reps: int = 3
    #: crash → ops at the survivors → recover → anti-entropy, this often
    rejoins: int = 3
    rejoin_ops: int = 200


MESH_SPECS = {
    "mesh-steady": MeshSpec(
        "mesh-steady", nodes=3, gc=True, dead=(), preload=0, pause=0.0,
        rate=300.0, lanes=(0, 1), warmup=200, setups=5, rejoins=9, cold_starts=9,
    ),
    "mesh-degraded": MeshSpec(
        "mesh-degraded", nodes=3, gc=True, dead=(2,), preload=8000, pause=3.0,
        rate=200.0, lanes=(0, 1), warmup=0,
    ),
    "solo-durable": MeshSpec(
        "solo-durable", nodes=1, gc=False, dead=(), preload=12000, pause=0.0,
        rate=200.0, lanes=(0,), warmup=0, setups=5,
    ),
}
SIM_SPEC = SimSpec()
WORKLOADS = (*MESH_SPECS, SIM_SPEC.name)


@dataclass
class PassResult:
    """What one pass (untraced or traced) of one workload measured."""

    end_to_end: dict[str, float]
    #: the *always* layer metrics; the traced pass adds the probe numbers
    layers: dict[str, float | None]
    attempted: int
    failed: int
    checks: dict[str, bool]
    flags: list[str] = field(default_factory=list)
    probe_errors: list[str] = field(default_factory=list)
    #: inputs for the pipeline replay (ops, log length, topology)
    facts: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _client_layers(records: list[OpRecord], update_p50_ms: float) -> tuple[dict, list]:
    """The ``client.*`` layer metrics and the validity flag they imply.

    Generator and cluster share one interpreter, so anything that stalls
    the loop (a naive-replay query, a gen-2 GC pass, an fsync) also delays
    the ticker: the *tail* of the lateness is the system's doing and is
    reported as a diagnostic.  The run is flagged only when the *typical*
    op was released late enough to distort the medians.
    """
    updates = [r.latency * 1e3 for r in records if r.kind != "contains"]
    queries = [r.latency * 1e3 for r in records if r.kind == "contains"]
    late = [r.lateness * 1e3 for r in records]
    quarters = window_percentiles(updates, 4, 0.5)
    layers = {
        "client.update_p99_ms": percentile(updates, 0.99),
        "client.query_p99_ms": percentile(queries, 0.99),
        "client.first_quarter_p50_ms": quarters[0],
        "client.last_quarter_p50_ms": quarters[-1],
        "client.late_p99_ms": percentile(late, 0.99),
    }
    flagged = median(late) > 0.25 * update_p50_ms
    return layers, ["generator_late"] if flagged else []


# -- the three mesh workloads ---------------------------------------------------


class _Registry:
    """Reads of ``cluster.registry`` around the timed phase: built just
    before it, :meth:`stop` called just after."""

    def __init__(self, registry: Any, errors: list[str]) -> None:
        self._registry = registry
        self._errors = errors
        self._flat0 = registry.flat()
        self._buckets0 = {
            name: self._buckets(name)
            for name in ("repro_net_convergence_lag_seconds",
                         "repro_net_dirty_flush_latency_seconds")
        }

    def _buckets(self, name: str) -> list[int] | None:
        try:
            return list(self._registry.get(name).combined_buckets())
        except (AttributeError, TypeError) as exc:
            self._errors.append(f"registry histogram {name}: {exc!r}")
            return None

    def stop(self) -> None:
        self._flat1 = self._registry.flat()
        self._buckets1 = {name: self._buckets(name) for name in self._buckets0}

    def delta(self, prefix: str) -> float:
        """Growth, over the phase, of every series whose name starts with
        ``prefix`` (labelled series are summed)."""
        return sum(
            value - self._flat0.get(key, 0)
            for key, value in self._flat1.items() if key.startswith(prefix)
        )

    def window_p99_ms(self, name: str) -> float | None:
        """p99 of a registry histogram over the timed phase only."""
        before, after = self._buckets0[name], self._buckets1[name]
        if before is None or after is None:
            return None
        try:
            from repro.obs.metrics import bucket_quantile

            uppers = self._registry.get(name).uppers
            counts = [b - a for a, b in zip(before, after)]
            return bucket_quantile(uppers, counts, 0.99) * 1e3
        except (ImportError, AttributeError) as exc:
            self._errors.append(f"registry histogram {name}: {exc!r}")
            return None


async def _preload(cluster: LocalCluster, pids: list[int], values: list[int]) -> None:
    """Submit ``values`` round-robin over ``pids``, yielding to the loop
    so peers, flushers and write buffers keep up."""
    for i, value in enumerate(values):
        cluster.submit(pids[i % len(pids)], set_spec.insert(value))
        if i % 50 == 49:
            await asyncio.sleep(0)


async def _mesh_set_up(spec: MeshSpec, data_dir: str) -> tuple[LocalCluster, list, float]:
    """Boot, degrade, preload, settle, connect, warm up; returns the
    cluster, its client connections and how long all of that took."""
    t0 = time.perf_counter()
    cluster = LocalCluster(
        spec.nodes, make_factory("set", gc=spec.gc),
        data_dir=data_dir, sync_interval=SYNC_INTERVAL,
    )
    await cluster.start()
    for pid in spec.dead:
        cluster.kill(pid)
    await _preload(cluster, sorted(set(spec.lanes)), preload_values(spec.preload))
    await cluster.settle(timeout=120.0)
    clients = [cluster.client(pid) for pid in spec.lanes]
    for client in clients:
        # Connects, and answers one query over the preloaded log: the
        # first query at a node pays a full cold replay nobody pays twice.
        if await client.query("contains", -1) is not False:
            raise RuntimeError("warm-up query answered True for an absent value")
    for i, op in enumerate(warmup_ops(spec.warmup)):
        if not await issue(clients[i % len(clients)], op):
            raise RuntimeError(f"warm-up op {op} failed")
    await cluster.settle(timeout=120.0)
    return cluster, clients, time.perf_counter() - t0


async def _close(clients: list) -> None:
    for client in clients:
        await client.close()


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


async def run_mesh(
    spec: MeshSpec, seed: int, seconds: float, work_dir: str,
    recorder: SpanRecorder, *, traced: bool = False,
) -> PassResult:
    errors: list[str] = []
    checks: dict[str, bool] = {}
    data_dir = os.path.join(work_dir, f"{spec.name}-data")

    # Set-up, several times: every boot but the last is torn down again.
    setup_times: list[float] = []
    for rep in range(spec.setups):
        shutil.rmtree(data_dir, ignore_errors=True)
        cluster, clients, took = await _mesh_set_up(spec, data_dir)
        setup_times.append(took)
        if rep < spec.setups - 1:
            await _close(clients)
            await cluster.stop()
    await asyncio.sleep(spec.pause)

    ops = mesh_ops(seed, int(spec.rate * seconds), len(spec.lanes))
    on_done: Callable[[OpRecord], None] | None = None
    if recorder.enabled:
        def on_done(r: OpRecord) -> None:
            recorder.add(f"client.{r.kind}", r.due, r.end, r.index)
    gc.collect()
    reg = _Registry(cluster.registry, errors)
    t_loop = time.perf_counter()
    loop = await open_loop(clients, ops, spec.rate, on_done)
    loop_s = time.perf_counter() - t_loop
    reg.stop()
    records = loop.records
    await _close(clients)
    await cluster.settle(timeout=60.0)

    acked = {ops[r.index].value for r in records if r.ok and r.kind == "insert"}
    updates_sent = sum(1 for op in ops if op.kind == "insert")
    # Per one-second window of the schedule, then the quiet level of the
    # windows (see ``stats.quiet_level``) — not a statistic of the pooled
    # samples, which a few seconds of interference would drag along.
    end_to_end = {
        "update_p50_ms": quiet_level(loop.window_medians(("insert",))) * 1e3,
        "query_p50_ms": quiet_level(loop.window_medians(("contains",))) * 1e3,
        "cpu_ms_per_op": quiet_level(loop.window_cpu_per_op) * 1e3,
        "setup_s": median(setup_times),
    }
    layers, flags = _client_layers(records, end_to_end["update_p50_ms"])
    layers.update({
        "net.node.frames_per_update":
            reg.delta("repro_net_frames_sent_total") / updates_sent,
        "net.node.frames_dropped": reg.delta("repro_net_frames_dropped_total"),
        "net.node.flushes_per_s": reg.delta("repro_net_snapshot_flushes_total") / loop_s,
        "net.node.journal_records_per_update":
            reg.delta("repro_net_journal_records_total") / updates_sent,
        "net.node.sync_requests_per_s": reg.delta("repro_sync_requests_total") / loop_s,
        "net.node.convergence_lag_p99_ms":
            reg.window_p99_ms("repro_net_convergence_lag_seconds"),
        "net.node.flush_latency_p99_ms":
            reg.window_p99_ms("repro_net_dirty_flush_latency_seconds"),
        "core.gc.collected_per_update":
            reg.delta("repro_replica_collected_entries_total") / updates_sent,
    })

    # Traced pass only: what the node costs under the HTTP front-end.
    direct: list[int] = []
    if traced:
        submit_us: list[float] = []
        for i in range(spec.direct_submits):
            update = set_spec.insert(DIRECT_BASE + i)
            t0 = time.perf_counter()
            cluster.submit(spec.lanes[0], update)
            submit_us.append((time.perf_counter() - t0) * 1e6)
            direct.append(DIRECT_BASE + i)
            if i % 50 == 49:
                await asyncio.sleep(0)
        layers["net.node.submit_us"] = median(submit_us)
        layers["net.http.overhead_us"] = (
            end_to_end["update_p50_ms"] * 1e3 - layers["net.node.submit_us"]
        )
        await cluster.settle(timeout=60.0)

    # Rejoin: restart(victim) -> settle() returns with it equal to the rest.
    victim = spec.nodes - 1
    down = victim in spec.dead
    rejoin_times: list[float] = []
    for _ in range(1 if down else spec.rejoins):
        if not down:
            await asyncio.sleep(0.15)  # let the 50 ms flusher drain first
            cluster.kill(victim)
        t0 = time.perf_counter()
        await cluster.restart(victim)
        await cluster.settle(timeout=120.0)
        rejoin_times.append(time.perf_counter() - t0)
        down = False
    end_to_end["rejoin_s"] = median(rejoin_times)

    # Every acknowledged insert is in the one state all live nodes hold.
    preloaded = preload_values(spec.preload) + [
        op.value for op in warmup_ops(spec.warmup) if op.kind == "insert"
    ]
    expected = set(preloaded) | acked | set(direct)
    states = cluster.states()
    final = states[0]
    checks["replicas_equal"] = (
        len(states) == spec.nodes and all(s == final for s in states.values())
    )
    missing = len(expected - set(final))
    task_errors = cluster.registry.flat().get("repro_net_task_errors_total", 0)
    layers["net.node.task_errors"] = task_errors
    checks["no_task_errors"] = task_errors == 0
    await cluster.stop()

    # Bytes on disk per node, per update that node journaled.
    end_to_end["journal_bytes_per_update"] = (
        _dir_bytes(data_dir) / spec.nodes / len(expected)
    )

    # Cold start: a new cluster on the same disk, up to its first 200.
    cold_times: list[float] = []
    probe = next(iter(expected))
    cold_ok = True
    for _ in range(spec.cold_starts):
        t0 = time.perf_counter()
        again = LocalCluster(
            spec.nodes, make_factory("set", gc=spec.gc),
            data_dir=data_dir, sync_interval=SYNC_INTERVAL,
        )
        await again.start()
        client = again.client(spec.lanes[0])
        answered = await client.query("contains", probe)
        cold_times.append(time.perf_counter() - t0)
        cold_ok &= answered is True
        cold_ok &= all(s == final for s in again.states().values())
        await client.close()
        await again.stop()
    end_to_end["cold_start_s"] = median(cold_times)
    checks["cold_start_state_equal"] = cold_ok

    failed = sum(1 for r in records if not r.ok) + (len(ops) - len(records)) + missing
    return PassResult(
        end_to_end, layers, attempted=len(ops), failed=failed, checks=checks,
        flags=flags, probe_errors=errors,
        facts={
            "ops": ops, "gc": spec.gc, "nodes": spec.nodes,
            "live_peers": spec.nodes - 1 - len(spec.dead),
            "preload": [
                Op("insert", value, None, i % len(set(spec.lanes)))
                for i, value in enumerate(preloaded)
            ],
            "drain_every": 1, "wire": True, "journal": True, "data_dir": data_dir,
        },
    )


# -- the simulator workload -----------------------------------------------------


def _sim_apply(cluster: Cluster, op: Op) -> Any:
    if op.kind == "contains":
        return cluster.query(op.pid, "contains", (op.value,))
    update = set_spec.insert(op.value) if op.kind == "insert" else set_spec.delete(op.value)
    return cluster.update(op.pid, update)


class _SimRep(NamedTuple):
    wall: float
    cpu: float
    #: seconds spent in each call family, in call order
    spent: dict[str, list[float]]
    #: query outputs that were not booleans
    bad_outputs: int
    #: ``Cluster.metrics.flat()`` at the end of the repetition
    flat: dict[str, float]


def _sim_rep(
    spec: SimSpec, factory: Any, seed: int, ops: list[Op],
    recorder: SpanRecorder, rep: int,
) -> tuple[Cluster, _SimRep]:
    """One repetition of the op stream on a fresh cluster; returns the
    cluster apart from the figures so callers can let it go."""
    cluster = Cluster(spec.nodes, factory, seed=seed, fifo=True)
    spent: dict[str, list[float]] = {
        "update": [], "query": [], "drain": [], "anti_entropy": [],
    }
    bad = 0
    clock = time.perf_counter
    base = rep * len(ops)
    cpu0, t_rep = time.process_time(), clock()
    for i, op in enumerate(ops):
        t0 = clock()
        out = _sim_apply(cluster, op)
        t1 = clock()
        kind = "query" if op.kind == "contains" else "update"
        spent[kind].append(t1 - t0)
        recorder.add(f"sim.{kind}", t0, t1, base + i)
        if kind == "query" and not isinstance(out, bool):
            bad += 1
        if i % spec.drain_every == spec.drain_every - 1:
            t0 = clock()
            cluster.run()
            t1 = clock()
            spent["drain"].append(t1 - t0)
            recorder.add("sim.drain", t0, t1, base + i)
        if i % spec.sync_every == spec.sync_every - 1:
            t0 = clock()
            cluster.anti_entropy(rounds=1)
            t1 = clock()
            spent["anti_entropy"].append(t1 - t0)
            recorder.add("sim.anti_entropy", t0, t1, base + i)
    wall, cpu = clock() - t_rep, time.process_time() - cpu0
    return cluster, _SimRep(wall, cpu, spent, bad, cluster.metrics.flat())


def run_sim(
    spec: SimSpec, seed: int, seconds: float, recorder: SpanRecorder,
) -> PassResult:
    factory = make_factory("set", gc=False)

    # Set-up: build the inputs and a cluster, warm the code paths.
    setup_times: list[float] = []
    for _ in range(spec.setups):
        t0 = time.perf_counter()
        ops = sim_ops(seed, spec.ops, space=spec.space, pids=spec.nodes)
        _sim_rep(spec, factory, seed, ops[:spec.warmup_ops], SpanRecorder(enabled=False), 0)
        setup_times.append(time.perf_counter() - t0)

    gc.collect()
    reps: list[_SimRep] = []
    t_start = time.perf_counter()
    while len(reps) < spec.min_reps or time.perf_counter() - t_start < seconds:
        # One live cluster at a time: a heap holding every repetition's
        # logs slows the later ones down (full GC passes, cache misses).
        cluster, rep = _sim_rep(spec, factory, seed, ops, recorder, len(reps))
        reps.append(rep)
    attempted = len(reps) * len(ops)
    bad_outputs = sum(rep.bad_outputs for rep in reps)

    def total(flat: dict, prefix: str) -> float:
        return sum(v for k, v in flat.items() if k.startswith(prefix))

    def pooled(kind: str) -> list[float]:
        return [x for rep in reps for x in rep.spent[kind]]

    flat = reps[-1].flat
    updates = total(flat, "repro_cluster_updates_total")
    quarters = window_percentiles([x * 1e3 for x in reps[0].spent["update"]], 4, 0.5)
    layers: dict[str, float | None] = {
        "sim.us_per_op": quiet_level([rep.wall for rep in reps]) * 1e6 / len(ops),
        "sim.messages_per_update":
            total(flat, "repro_network_messages_sent_total") / updates,
        "sim.replayed_per_query":
            flat["repro_cluster_query_replayed_updates_sum"]
            / flat["repro_cluster_query_replayed_updates_count"],
        "sim.sync_request_bits_per_round":
            total(flat, "repro_sync_request_bits_total")
            / (len(ops) // spec.sync_every),
        "sim.sync_updates_shipped": total(flat, "repro_sync_updates_shipped_total"),
        "client.update_p99_ms": percentile(pooled("update"), 0.99) * 1e3,
        "client.query_p99_ms": percentile(pooled("query"), 0.99) * 1e3,
        "client.first_quarter_p50_ms": quarters[0],
        "client.last_quarter_p50_ms": quarters[-1],
    }
    for kind in reps[0].spent:
        layers[f"sim.{kind}_us"] = sum(pooled(kind)) * 1e6 / attempted
    checks = {
        "sim_counts_repeat": all(rep.flat == flat for rep in reps),
        "query_outputs_boolean": bad_outputs == 0,
    }

    # Crash one replica, keep updating the others, recover it from its
    # durable image and heal — the sim's cold start and rejoin.
    cluster.run()
    extra = sim_ops(seed + 1, spec.rejoins * spec.rejoin_ops,
                    space=spec.space, pids=spec.nodes - 1)
    victim = spec.nodes - 1
    cold_times: list[float] = []
    rejoin_times: list[float] = []
    converged = True
    for r in range(spec.rejoins):
        cluster.crash(victim)
        for op in extra[r * spec.rejoin_ops:(r + 1) * spec.rejoin_ops]:
            _sim_apply(cluster, op)
        cluster.run()
        t0 = time.perf_counter()
        cluster.recover(victim)
        t1 = time.perf_counter()
        cluster.anti_entropy(rounds=10)
        rejoin_times.append(time.perf_counter() - t0)
        cold_times.append(t1 - t0)
        states = list(cluster.states().values())
        converged &= len(states) == spec.nodes and all(s == states[0] for s in states)
    checks["sim_converged"] = converged
    image = cluster.cores[0].snapshot(version=3)
    logged = total(cluster.metrics.flat(), "repro_cluster_updates_total")

    # A repetition is the sim's window: its own median, then the quiet
    # level of the repetitions.
    end_to_end = {
        "update_p50_ms": quiet_level([median(rep.spent["update"]) for rep in reps]) * 1e3,
        "query_p50_ms": quiet_level([median(rep.spent["query"]) for rep in reps]) * 1e3,
        "cpu_ms_per_op": quiet_level([rep.cpu for rep in reps]) * 1e3 / len(ops),
        "rejoin_s": median(rejoin_times),
        "cold_start_s": median(cold_times),
        "journal_bytes_per_update": len(image.encode("utf-8")) / logged,
        "setup_s": median(setup_times),
    }
    return PassResult(
        end_to_end, layers, attempted=attempted, failed=bad_outputs, checks=checks,
        facts={
            "ops": ops, "gc": False, "nodes": spec.nodes,
            "live_peers": spec.nodes - 1,
            # the log grows from empty through a repetition: probe mid-way
            "preload": [op for op in ops if op.kind != "contains"][: int(updates) // 2],
            "drain_every": spec.drain_every,
            "wire": False, "journal": False, "data_dir": None,
        },
    )
