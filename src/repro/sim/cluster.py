"""The simulation runtime: replicas + network + virtual time + trace.

A :class:`Cluster` hosts one replicated object: ``n`` replicas produced by
a factory, a :class:`~repro.sim.network.Network`, and a :class:`Trace`
recording every application-level operation (the events of the distributed
history) together with the witness metadata replicas expose.

Wait-freedom is structural: :meth:`Cluster.update` and
:meth:`Cluster.query` run the replica hook synchronously and return — they
never deliver messages, never advance time, never touch other replicas.
Delivery happens only through :meth:`Cluster.step` / :meth:`Cluster.run`,
under the control of the experiment (the adversary).

Typical scripted use (the Proposition 1 gadget)::

    cluster = Cluster(2, lambda pid, n: UniversalReplica(pid, n, SetSpec()))
    cluster.network.hold(0, 1); cluster.network.hold(1, 0)  # isolate
    cluster.update(0, S.insert(1)); cluster.update(0, S.insert(3))
    cluster.update(1, S.insert(2)); cluster.update(1, S.delete(3))
    r0 = cluster.query(0, "read")        # sees only its own updates: {1,3}
    r1 = cluster.query(1, "read")        # {2}
    cluster.network.heal(cluster.now); cluster.run()
    assert cluster.query(0, "read") == cluster.query(1, "read")  # converged
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.core.adt import Query, Update, _canonical
from repro.core.history import Event, History
from repro.core.criteria.witness import SUCWitness
from repro.obs.metrics import CounterSeries, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.proto.core import ProtocolCore
from repro.proto.effects import (
    ONLY_PERSIST_MESSAGE,
    Broadcast,
    Effect,
    Persist,
    QueryAnswered,
    Send,
    Timer,
)
from repro.sim.network import LatencyModel, Network
from repro.sim.replica import Replica

#: The effect contract (checked by uqlint EFX401): which members of the
#: closed ``repro.proto.effects.Effect`` union this backend dispatches on.
HANDLED_EFFECTS = (Broadcast, Send)
#: Deliberately uninterpreted here: the sim's durable image is taken on
#: demand by :meth:`Cluster.recover` (``Persist`` marks nothing), virtual
#: time makes follow-up ticks explicit scenario steps (``Timer``), and
#: query outputs are returned synchronously (``QueryAnswered``).
IGNORED_EFFECTS = (Persist, Timer, QueryAnswered)


class CrashedProcessError(RuntimeError):
    """An operation was invoked on a crashed process."""


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One application-level operation as recorded by the trace."""

    eid: int
    pid: int
    label: Update | Query
    time: float
    meta: Mapping[str, Any]

    @property
    def is_update(self) -> bool:
        return isinstance(self.label, Update)


class Trace:
    """Recorded operations, convertible to the formal history + witness."""

    def __init__(self) -> None:
        self.records: list[OpRecord] = []

    def append(self, record: OpRecord) -> None:
        """Record one operation (runtime use)."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def updates(self) -> list[OpRecord]:
        """The update records, in invocation order."""
        return [r for r in self.records if r.is_update]

    def queries(self) -> list[OpRecord]:
        """The query records, in invocation order."""
        return [r for r in self.records if not r.is_update]

    def to_history(self) -> History:
        """The distributed history: per-process chains in invocation order."""
        events = [Event(eid=r.eid, label=r.label, pid=r.pid) for r in self.records]
        by_pid: dict[int, list[Event]] = {}
        for ev, r in zip(events, self.records):
            by_pid.setdefault(r.pid, []).append(ev)
        from repro.util import ordering

        po = ordering.empty_relation(events)
        for chain in by_pid.values():
            for a, b in zip(chain, chain[1:]):
                ordering.add_edge(po, a, b)
        return History(events, po)

    def witness_ids(
        self,
    ) -> tuple[dict[int, tuple[int, int]], dict[int, frozenset[tuple[int, int]]]]:
        """The Definition 9 witness as ids, read from replica metadata: by
        record ``eid``, every record's ``(clock, pid)`` timestamp and every
        query's set of visible update timestamps.

        Requires every record's ``meta`` to carry ``"timestamp"`` and every
        query's to carry ``"visible"`` (a
        :class:`~repro.sim.replica.KnownIds` prefix view as recorded, a
        frozenset in a loaded trace) — every Algorithm 1 replica records
        both.  A replica that keeps a base also reports
        ``"visible_floor"``: every update with clock at or below it was
        folded into the base state (hence visible) without being
        enumerated; the floor is expanded here against the recorded
        update timestamps.  The one reader of those three keys.
        """
        timestamps: dict[int, tuple[int, int]] = {}
        update_uids: list[tuple[int, int]] = []
        for r in self.records:
            ts = r.meta.get("timestamp")
            if ts is None:
                raise ValueError(
                    f"record {r.eid} lacks a timestamp: replica does not "
                    f"construct SUC witnesses"
                )
            ts = timestamps[r.eid] = (ts[0], ts[1])
            if r.is_update:
                update_uids.append(ts)
        visible: dict[int, frozenset[tuple[int, int]]] = {}
        for r in self.records:
            if r.is_update:
                continue
            uids = r.meta.get("visible")
            if uids is None:
                raise ValueError(f"query record {r.eid} lacks visibility metadata")
            seen = {(u[0], u[1]) for u in uids}
            floor = r.meta.get("visible_floor", 0)
            if floor:
                seen.update(uid for uid in update_uids if uid[0] <= floor)
            visible[r.eid] = frozenset(seen)
        return timestamps, visible

    def suc_witness(self, history: History | None = None) -> SUCWitness:
        """Reconstruct the Definition 9 witness from replica metadata
        (:meth:`witness_ids`, mapped onto the history's events)."""
        if history is None:
            history = self.to_history()
        timestamps, visible = self.witness_ids()
        by_eid = {e.eid: e for e in history.events}
        update_by_uid = {
            timestamps[r.eid]: by_eid[r.eid] for r in self.records if r.is_update
        }
        visibility = {
            by_eid[eid]: frozenset(update_by_uid[uid] for uid in uids)
            for eid, uids in visible.items()
        }
        order = tuple(sorted(history.events, key=lambda e: timestamps[e.eid]))
        return SUCWitness(order=order, visibility=visibility)


class Cluster:
    """``n`` replicas of one object over a simulated asynchronous network.

    Since the sans-io refactor the cluster is a thin *effect interpreter*
    over :class:`repro.proto.core.ProtocolCore`: every application
    operation, delivery, sync round and recovery goes through a core's
    typed event methods, and the cluster's only job is to map the
    returned :class:`~repro.proto.effects.Broadcast` /
    :class:`~repro.proto.effects.Send` effects onto the simulated network
    (``Persist`` is moot — the sim's durable image is taken on demand by
    :meth:`recover` — and ``Timer`` is owned by the experiment script).
    The asyncio backend (:mod:`repro.net`) interprets the same effects
    over TCP, so every chaos/fuzz/persistence scenario here exercises
    exactly the code that runs on the wire.
    """

    def __init__(
        self,
        n: int,
        replica_factory: Callable[[int, int], Replica],
        *,
        latency: LatencyModel | None = None,
        seed: int = 0,
        fifo: bool = False,
        network_cls: type[Network] = Network,
        network_kwargs: Mapping[str, Any] | None = None,
        registry: MetricsRegistry | None = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.n = n
        self.rng = np.random.default_rng(seed)
        #: run-wide observability: one shared metrics registry (the network
        #: and every replica are re-homed onto it) and one virtual-time
        #: tracer (no-op unless the caller passes e.g. ``SimTracer()``).
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        #: ``network_cls``/``network_kwargs`` select the channel fault model
        #: (e.g. :class:`~repro.sim.network.LossyNetwork` with a drop
        #: probability); the default is the paper's reliable network.
        self.network = network_cls(
            n, latency=latency, rng=self.rng, fifo=fifo, **(network_kwargs or {})
        )
        self.network.tracer = tracer
        self.network.bind_metrics(self.metrics)
        self._replica_factory = replica_factory
        #: one protocol state machine per process (the sans-io cores the
        #: cluster interprets effects for).
        self.cores: list[ProtocolCore] = [
            ProtocolCore(pid, n, replica_factory, registry=self.metrics)
            for pid in range(n)
        ]
        self.now: float = 0.0
        self.trace = Trace()
        self.crashed: set[int] = set()
        self._eid = itertools.count()
        self._bind_cluster_metrics()
        # Channels open complete (nothing can have been missed yet); a
        # frame the network loses restarts its channel's link epoch.
        self.network.on_lost = self._relink

    def _bind_cluster_metrics(self) -> None:
        """Create the cluster's own instruments on the shared registry."""
        m = self.metrics
        self._dropped = m.counter(
            "repro_cluster_dropped_to_crashed_total",
            help="messages addressed to a crashed process and discarded",
        ).labels()
        self._recovered = m.counter(
            "repro_cluster_recoveries_total",
            help="crash-recovery restarts performed",
        ).labels()
        self._crashes = m.counter(
            "repro_cluster_crashes_total", help="processes crashed by the adversary",
        ).labels()
        updates = m.counter(
            "repro_cluster_updates_total",
            help="update operations issued", label_names=("pid",),
        )
        queries = m.counter(
            "repro_cluster_queries_total",
            help="query operations issued", label_names=("pid",),
        )
        # Per-pid series cached up front: hot paths index, never dict-lookup.
        self._update_series = [updates.labels(pid=p) for p in range(self.n)]
        self._query_series = [queries.labels(pid=p) for p in range(self.n)]
        self._replay_hist = m.histogram(
            "repro_cluster_query_replayed_updates",
            help="updates replayed to answer one query (replay amplification)",
        ).labels()
        # The replicas' own replay counters (bound by now), read around
        # each query; a replica keeping no replay count reads as zero.
        replayed = m.get("repro_replica_replayed_updates_total")
        self._replayed_series = [
            replayed.labels(pid=p) if replayed is not None else CounterSeries(())
            for p in range(self.n)
        ]
        self._time_gauge = m.gauge(
            "repro_cluster_virtual_time",
            help="the cluster's virtual clock (Cluster.now)",
        ).labels()

    # -- views --------------------------------------------------------------------------

    @property
    def replicas(self) -> list[Replica]:
        """The live replica objects, indexed by pid (a fresh view — the
        instances change when :meth:`recover` rebuilds one).  Tests and
        analysis introspect replicas through this; the cluster itself
        speaks only to the cores."""
        return [core.replica for core in self.cores]

    # -- application-level operations (wait-free) -----------------------------------

    def update(self, pid: int, update: Update) -> None:
        """Issue ``update`` at process ``pid``; completes locally."""
        core = self._live_core(pid)
        self._apply_effects(pid, core.submit(update))
        meta = core.witness_meta()
        self._update_series[pid].inc()
        if self.tracer.enabled:
            self.tracer.event(
                "op.update", self.now, pid=pid,
                attrs={"update": str(update), "timestamp": meta.get("timestamp")},
            )
        self.trace.append(OpRecord(next(self._eid), pid, update, self.now, meta))

    def query(self, pid: int, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        """Issue query ``name(*args)`` at ``pid``; returns its output."""
        core = self._live_core(pid)
        replayed_series = self._replayed_series[pid]
        before = replayed_series.value
        output, effects = core.query(name, args)
        if effects:
            self._apply_effects(pid, effects)
        meta = core.witness_meta()
        replayed = replayed_series.value - before
        self._query_series[pid].inc()
        self._replay_hist.observe(replayed)
        if self.tracer.enabled:
            self.tracer.event(
                "op.query", self.now, pid=pid,
                attrs={"query": name, "replayed": replayed,
                       "timestamp": meta.get("timestamp")},
            )
        self.trace.append(
            OpRecord(next(self._eid), pid, Query(name, args, output), self.now, meta)
        )
        return output

    # -- delivery & time --------------------------------------------------------------

    def step(self) -> bool:
        """Deliver the next in-flight message; False when none remain
        deliverable (held messages do not count)."""
        msg = self.network.pop_next()
        if msg is None:
            return False
        self.now = max(self.now, msg.deliver_at)
        self._time_gauge.set(self.now)
        if msg.dst in self.crashed:
            self._dropped.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "message.drop_to_crashed", self.now, pid=msg.dst,
                    attrs={"src": msg.src, "seq": msg.seq},
                )
            return True
        if self.tracer.enabled:
            self.tracer.span(
                "message.deliver", msg.sent_at, self.now, pid=msg.dst,
                attrs={"src": msg.src, "seq": msg.seq},
            )
            # Anti-entropy v2 payloads, matched by wire tag (string
            # literals: importing repro.core.sync here would cycle
            # through repro.sim's package init).
            p = msg.payload
            if isinstance(p, tuple) and p:
                if p[0] == "sync-resp":
                    self.tracer.event(
                        "sync.page", self.now, pid=msg.dst,
                        attrs={"src": msg.src, "entries": len(p[1])},
                    )
                elif p[0] == "sync-state":
                    self.tracer.event(
                        "sync.state_transfer", self.now, pid=msg.dst,
                        attrs={"src": msg.src},
                    )
        effects = self.cores[msg.dst].deliver(msg.src, msg.payload)
        if effects is not ONLY_PERSIST_MESSAGE:
            self._apply_effects(msg.dst, effects)
        return True

    def run(self, max_steps: int = 10_000_000) -> int:
        """Deliver until quiescent; returns the number of deliveries.

        Untraced runs take a fused delivery loop: one message at a time in
        exactly :meth:`step`'s ``(deliver_at, seq)`` order — true batch
        pre-popping would reorder deliveries whenever a handler's reply is
        due before an already-popped message — but with the per-step
        attribute lookups, tracer checks and virtual-time gauge writes
        hoisted out.  That bookkeeping dominates the per-delivery cost of
        a hot replica, and sims deliver millions of messages per run.
        """
        if self.tracer.enabled:
            steps = 0
            while steps < max_steps and self.step():
                steps += 1
            if steps >= max_steps:
                raise RuntimeError(
                    f"network did not quiesce within {max_steps} deliveries"
                )
            return steps
        pop_next = self.network.pop_next
        broadcast = self.network.broadcast
        send = self.network.send
        cores = self.cores
        crashed = self.crashed
        dropped = self._dropped
        now = self.now
        steps = 0
        try:
            while steps < max_steps:
                msg = pop_next()
                if msg is None:
                    break
                steps += 1
                if msg.deliver_at > now:
                    now = msg.deliver_at
                dst = msg.dst
                if dst in crashed:
                    dropped.inc()
                    continue
                effects = cores[dst].deliver(msg.src, msg.payload)
                if effects is ONLY_PERSIST_MESSAGE:
                    continue  # the common quiescent delivery: nothing to ship
                for eff in effects:
                    cls = eff.__class__
                    if cls is Broadcast:
                        broadcast(dst, eff.payload, now)
                    elif cls is Send:
                        send(dst, eff.dst, eff.payload, now)
        finally:
            # A handler may raise (e.g. StabilityViolation): keep the
            # cluster clock and its gauge consistent regardless.
            self.now = now
            self._time_gauge.set(now)
        if steps >= max_steps:
            raise RuntimeError(f"network did not quiesce within {max_steps} deliveries")
        return steps

    def run_until(self, time: float) -> int:
        """Deliver every message due at or before ``time``; advance to it."""
        steps = 0
        while True:
            t = self.network.peek_time()
            if t is None or t > time:
                break
            self.step()
            steps += 1
        self.now = max(self.now, time)
        return steps

    def advance(self, dt: float) -> None:
        """Let ``dt`` of virtual time pass without delivering anything."""
        if dt < 0:
            raise ValueError("time cannot flow backwards")
        self.now += dt
        self._time_gauge.set(self.now)

    # -- faults ------------------------------------------------------------------------

    def crash(self, pid: int, *, drop_outgoing: bool = False) -> None:
        """Halt process ``pid``.  With ``drop_outgoing`` the adversary also
        loses its in-flight messages (a crash mid-broadcast).

        Intended semantics — crash interacts cleanly with holds:

        * A crashed process receives nothing: its inbound in-flight traffic
          (including held messages) is dropped *now* and counted once in
          ``repro_cluster_dropped_to_crashed_total``; a later ``heal()`` cannot re-deliver
          to it and inflate the counter.
        * It stops being a hold/partition endpoint: every hold involving it
          is dissolved.  Messages it already sent stay subject to channel
          reliability (unless ``drop_outgoing``), so parked outbound
          traffic is released rather than stranded forever.
        * Live replicas keep broadcasting to it (they cannot tell); those
          later sends are dropped at delivery time, as before.

        A crashed process may come back via :meth:`recover`.
        """
        self._check_pid(pid)
        if pid in self.crashed:
            return
        self.crashed.add(pid)
        dropped_out = 0
        if drop_outgoing:
            dropped_out = self.network.drop_messages(lambda m: m.src == pid)
            for k in self.alive():
                self.cores[k].link_lost(pid)  # re-established on recover
        self.network.dissolve_holds(pid, self.now)
        dropped_in = self.network.drop_messages(lambda m: m.dst == pid)
        self._dropped.inc(dropped_in)
        self._crashes.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "replica.crash", self.now, pid=pid,
                attrs={"drop_outgoing": drop_outgoing,
                       "dropped_inbound": dropped_in,
                       "dropped_outgoing": dropped_out},
            )

    def recover(self, pid: int, *, fsync_point: int | None = None) -> Replica:
        """Restart crashed process ``pid`` from its durable log.

        Models crash-*recovery*: the dead replica's update log is read back
        through the :mod:`repro.proto.wire` codec (the on-disk image),
        truncated to ``fsync_point`` entries if the crash beat the last
        fsync (``None`` = everything survived; the Lamport clock always
        survives, see :func:`~repro.proto.wire.replica_snapshot`).  The
        image is the v3 *journal* format — the digest-chained record
        sequence the real storage engine (:mod:`repro.storage`) reads off
        disk, so every chaos/fuzz recovery in the simulator also verifies
        the chain the networked backend depends on.  The core rebuilds a
        fresh replica from the factory, reloads it, and rejoins by
        broadcasting an anti-entropy sync request — peers send back what
        it missed while down, and pull anything only its log still has
        (its own pre-crash updates whose broadcast was lost).
        """
        self._check_pid(pid)
        if pid not in self.crashed:
            raise ValueError(f"process {pid} is not crashed")
        core = self.cores[pid]
        snapshot = core.snapshot(fsync_point=fsync_point)
        effects = core.recover(snapshot)
        self.crashed.discard(pid)
        self._recovered.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "replica.recover", self.now, pid=pid,
                attrs={"fsync_point": fsync_point,
                       "restored_log": core.log_length},
            )
            if core.sync_capable:
                self.tracer.event(
                    "sync.request", self.now, pid=pid, attrs={"reason": "recover"}
                )
        # The effect batch carries the rejoin sync broadcast *and* any
        # directed sends the restore hooks queued (e.g. a subclass pulling
        # state from a peer); interpreting it ships both.
        self._apply_effects(pid, effects)
        # Every channel from the restarted process is a new link (its own
        # links reopened with the restore: the rejoin broadcast is their
        # opening round).
        for k in self.alive():
            if k != pid:
                self._relink(pid, k, self.now)
        return core.replica

    def hold(self, src: int, dst: int) -> None:
        """Park src→dst traffic; endpoints must be live processes."""
        self._check_live_endpoint(src)
        self._check_live_endpoint(dst)
        self.network.hold(src, dst)
        if self.tracer.enabled:
            self.tracer.event(
                "channel.hold", self.now, attrs={"src": src, "dst": dst}
            )

    def release(self, src: int, dst: int) -> None:
        """Release a held channel at the current virtual time."""
        self.network.release(src, dst, self.now)
        if self.tracer.enabled:
            self.tracer.event(
                "channel.release", self.now, attrs={"src": src, "dst": dst}
            )

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Block all traffic between the given groups (until healed).

        Crashed pids are filtered out of the groups — a dead process is not
        a partition endpoint (its traffic is already dropped); the groups
        must otherwise be disjoint (validated by the network).
        """
        live = [[pid for pid in g if pid not in self.crashed] for g in groups]
        filtered = [g for g in live if g]
        self.network.partition(filtered)
        if self.tracer.enabled:
            self.tracer.event(
                "channel.partition", self.now,
                attrs={"groups": [sorted(g) for g in filtered]},
            )

    def heal(self) -> None:
        """End every partition/hold; parked messages become deliverable,
        and every healed channel is a new link."""
        for src, dst in self.network.heal(self.now):
            self._relink(src, dst, self.now)
        if self.tracer.enabled:
            self.tracer.event("channel.heal", self.now)

    def _relink(self, src: int, dst: int, now: float) -> None:
        """The ``src -> dst`` channel restarted at ``now`` (a recovery, a
        heal, a lost frame): ``dst`` loses its link epoch with ``src`` and
        opens a new one (DESIGN.md §11)."""
        if dst in self.crashed or src in self.crashed:
            return
        core = self.cores[dst]
        core.link_lost(src)
        effects = core.link_established(src)
        if effects:
            self._apply_effects(dst, effects, now)

    def anti_entropy(self, *, rounds: int = 3) -> int:
        """Run sync rounds until replicas agree (or ``rounds`` exhausted).

        Each round every live sync-capable replica broadcasts a
        :meth:`~repro.core.universal.UniversalReplica.sync_request` and the
        network drains.  Repairs divergence the reliable-broadcast
        machinery cannot: lossy channels, recovery amnesia.  Returns the
        number of rounds performed.
        """
        performed = 0
        for _ in range(rounds):
            requested = 0
            round_start = self.now
            for pid in self.alive():
                effects = self.cores[pid].sync_tick()
                if effects:
                    self._apply_effects(pid, effects)
                    requested += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "sync.request", self.now, pid=pid,
                            attrs={"reason": "anti-entropy"},
                        )
            if not requested:
                break
            self.run()
            performed += 1
            if self.tracer.enabled:
                self.tracer.span(
                    "anti_entropy.round", round_start, self.now,
                    attrs={"round": performed, "requests": requested},
                )
            if len({_canonical(s) for s in self.states().values()}) <= 1:
                break
        return performed

    def heartbeat(self, pid: int) -> bool:
        """Broadcast one liveness heartbeat from ``pid`` (gossip round).

        Returns False when the replica type has no heartbeat dialect —
        ticking any process is always safe.
        """
        effects = self._live_core(pid).sync_tick("heartbeat")
        if not effects:
            return False
        self._apply_effects(pid, effects)
        return True

    # -- inspection ----------------------------------------------------------------------

    def alive(self) -> list[int]:
        """Pids of the correct (non-crashed) processes."""
        return [pid for pid in range(self.n) if pid not in self.crashed]

    def states(self) -> dict[int, Any]:
        """Local state of every correct replica."""
        return {pid: self.cores[pid].local_state() for pid in self.alive()}

    def quiescent(self) -> bool:
        """No deliverable message remains (held ones may)."""
        return self.network.peek_time() is None

    def _apply_effects(
        self, pid: int, effects: Iterable[Effect], now: float | None = None
    ) -> None:
        """Interpret one effect batch from process ``pid``'s core.

        ``Broadcast``/``Send`` map onto the simulated network at ``now``
        (default: the current virtual time).  ``Persist`` is moot here
        (the sim's durable image is taken on demand by :meth:`recover`)
        and ``Timer`` is owned by the experiment script, so both are
        ignored.
        """
        broadcast = self.network.broadcast
        send = self.network.send
        if now is None:
            now = self.now
        for eff in effects:
            cls = eff.__class__
            if cls is Broadcast:
                broadcast(pid, eff.payload, now)
            elif cls is Send:
                send(pid, eff.dst, eff.payload, now)

    def ship_outbox(self, pid: int) -> None:
        """Ship the sends ``pid``'s replica queued outside an event method
        (the quorum client starts its operations that way), through the
        core's drain and :meth:`_apply_effects` like any event's."""
        effects: list[Effect] = []
        ProtocolCore._drain(self.cores[pid].replica, effects)
        self._apply_effects(pid, effects)

    def _live_core(self, pid: int) -> ProtocolCore:
        self._check_pid(pid)
        if pid in self.crashed:
            raise CrashedProcessError(f"process {pid} has crashed")
        return self.cores[pid]

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range for {self.n} processes")

    def _check_live_endpoint(self, pid: int) -> None:
        self._check_pid(pid)
        if pid in self.crashed:
            raise ValueError(
                f"process {pid} has crashed and cannot be a hold endpoint"
            )
