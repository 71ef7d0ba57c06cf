"""Differential fuzz for the Section VII-C replays.

"If all the update operations commute ... a naive implementation, that
applies the updates on a replica as soon as the notification is received,
achieves update consistency."  The arrival-order fold trusts that claim;
these tests earn it: every scenario runs the *same* seeded schedule twice —
once under the fold, once under naive replay (Algorithm 1's sorted-log
fold) — and requires identical observable behaviour, under chaos
adversaries, crash/recovery through the durable-log codec, and
stable-prefix GC with anti-entropy state transfer.  The same differential
holds every replay (checkpoint tree, undo/redo) against naive replay.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import update_consistent_convergence
from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.replay import make_replay
from repro.core.universal import UniversalReplica
from repro.net import __main__ as net_main
from repro.sim import Cluster
from repro.sim.fuzz import AdversaryFuzzer
from repro.sim.network import DuplicatingNetwork, ExponentialLatency, LossyNetwork
from repro.specs import (
    CounterSpec,
    GSetSpec,
    LogSpec,
    MapSpec,
    MaxRegisterSpec,
    QueueSpec,
    SetSpec,
)
from repro.specs import counter as C
from repro.specs import gset as G
from repro.specs import map_spec as Mp
from repro.specs import max_register as M
from repro.specs import set_spec as S

N = 3
SEEDS = st.integers(0, 10_000)

SPECS = {"counter": CounterSpec(), "gset": GSetSpec(), "max": MaxRegisterSpec()}
#: the order-sensitive specs of the replay matrix (naive, checkpoint and,
#: as each update overwrites one slot, keyed)
ORDERED = {"set": SetSpec(), "map": MapSpec()}
#: chaos networks: loss that anti-entropy repairs, and re-delivery that
#: only the replica's deduplication absorbs.
NETWORKS = {
    "lossy": (LossyNetwork, {"drop_probability": 0.1}),
    "duplicating": (DuplicatingNetwork, {"duplicate_probability": 0.5}),
}

#: every replay each spec takes, on both log-keeping replica classes.
MATRIX = [
    pytest.param(cls, kind, replay, id=f"{cls.__name__}-{kind}-{replay}")
    for cls in (UniversalReplica, GarbageCollectedReplica)
    for kind, replays in (
        ("counter", ("naive", "checkpoint", "undo", "fold")),
        ("set", ("naive", "checkpoint", "keyed")),
        ("map", ("naive", "checkpoint", "keyed")),
    )
    for replay in replays
]


def make_script(kind: str, seed: int, n_ops: int = 25) -> list:
    rng = np.random.default_rng(seed)
    script = []
    for _ in range(n_ops):
        pid = int(rng.integers(N))
        if kind == "counter":
            k = int(rng.integers(1, 5))
            op = C.dec(k) if rng.random() < 0.4 else C.inc(k)
        elif kind == "set":
            v = int(rng.integers(8))
            op = S.delete(v) if rng.random() < 0.4 else S.insert(v)
        elif kind == "map":
            k = int(rng.integers(4))
            op = Mp.remove(k) if rng.random() < 0.3 else Mp.put(k, int(rng.integers(5)))
        elif kind == "max":
            op = M.write_max(int(rng.integers(20)))
        else:
            op = G.insert(int(rng.integers(8)))
        script.append((pid, op))
    return script


def chaos_cluster(
    kind: str,
    seed: int,
    replay=None,
    replica_cls=UniversalReplica,
    network: str = "lossy",
    **kwargs,
):
    spec = {**SPECS, **ORDERED}[kind]
    network_cls, network_kwargs = NETWORKS[network]
    # Loss is repaired by anti-entropy alone: every replica class takes
    # the same keywords, and stable-prefix GC forbids epidemic relay.
    return Cluster(
        N,
        lambda p, n: replica_cls(p, n, spec, replay=replay, **kwargs),
        seed=seed,
        fifo=True,
        network_cls=network_cls,
        network_kwargs=network_kwargs,
    )


def run_chaos(cluster: Cluster, kind: str, seed: int, crash_budget: int = 1) -> dict:
    fuzzer = AdversaryFuzzer(
        cluster,
        seed=seed,
        crash_budget=crash_budget,
        allow_message_loss=True,
        recover_probability=0.3,
    )
    query = ("snapshot", ()) if kind == "map" else ("read", ())
    fuzzer.run_workload(make_script(kind, seed), anti_entropy_rounds=5, query=query)
    return cluster.states()


class TestDifferentialFuzz:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    @pytest.mark.parametrize("kind, network", [
        pytest.param("counter", "lossy", id="counter"),
        pytest.param("gset", "lossy", id="gset"),
        pytest.param("counter", "duplicating", id="counter-duplicating"),
    ])
    def test_fast_path_equals_sorted_replay_under_chaos(self, kind, network, seed):
        """Same seed, same adversary, same script: the arrival-order fold
        and the sorted-log replay must agree at every surviving replica
        (crashes recover through the durable-log codec mid-run).  On the
        duplicating network nothing crashes, so every scripted update
        survives and each replica must also hold the script's exact sum:
        a re-delivered update folded twice would miss it."""
        crash_budget = 0 if network == "duplicating" else 1
        fast = chaos_cluster(kind, seed, network=network)
        assert all(r.replay.name == "fold" for r in fast.replicas)
        slow = chaos_cluster(kind, seed, replay="naive", network=network)
        spec = SPECS[kind]
        fast_states = run_chaos(fast, kind, seed, crash_budget)
        slow_states = run_chaos(slow, kind, seed, crash_budget)
        assert set(fast_states) == set(slow_states)
        for pid in fast_states:
            assert spec.canonical(fast_states[pid]) == spec.canonical(
                slow_states[pid]
            ), f"pid {pid} diverged on seed {seed}"
        if network == "duplicating":
            total = sum(
                op.args[0] if op.name == "inc" else -op.args[0]
                for _, op in make_script(kind, seed)
            )
            assert set(fast_states.values()) == {total}, f"seed {seed}"

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_keyed_set_equals_sorted_replay_on_a_duplicating_network(self, seed):
        """Re-delivery under the keyed replay: a duplicate that reached the
        replay would land as a late write to a slot.  Nothing crashes, so
        every replica ends on the one state naive replay reaches."""
        spec = ORDERED["set"]
        states = {}
        for name in ("keyed", "naive"):
            c = chaos_cluster("set", seed, name, network="duplicating")
            assert all(r.replay.name == name for r in c.replicas)
            states[name] = {
                pid: spec.canonical(state)
                for pid, state in run_chaos(c, "set", seed, 0).items()
            }
        assert states["keyed"] == states["naive"], f"seed {seed}"
        assert len(set(states["keyed"].values())) == 1, f"seed {seed}"

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_fast_path_matches_agreed_linearization(self, kind, seed):
        """On a fault-free (but reordering) network the fast path must land
        on the timestamp linearization — the state sorted replay defines."""
        spec = SPECS[kind]
        c = Cluster(
            N,
            lambda p, n: UniversalReplica(p, n, spec),
            seed=seed,
            latency=ExponentialLatency(5.0),
        )
        assert all(r.replay.name == "fold" for r in c.replicas)
        for pid, op in make_script(kind, seed):
            c.update(pid, op)
        c.run()
        ok, expected, states = update_consistent_convergence(c, spec)
        assert ok
        assert all(
            spec.canonical(s) == spec.canonical(expected)
            for s in states.values()
        )

    @given(SEEDS)
    # A state transfer installs a floor while a triple at or below it is
    # still in flight: the triple is covered, not a stability violation.
    @example(seed=3449)
    @example(seed=3873)
    @example(seed=4088)
    @example(seed=6871)
    @example(seed=7453)
    @example(seed=7781)
    @example(seed=9152)
    @settings(max_examples=8, deadline=None)
    @pytest.mark.parametrize("replica_cls, kind, replay", MATRIX)
    def test_optimized_variants_differential(self, replica_cls, kind, replay, seed):
        """Every replay composes with crashes, truncated recovery and
        stable-prefix GC: same schedule, same canonical state and same
        sorted ``(clock, pid)`` log per pid as naive replay — and both
        equal one ``apply`` per log entry on top of the replica's base.
        GC replicas collect every 4 deliveries, so prefixes are folded
        and state transfers installed mid-run (loss voids the FIFO
        completeness GC relies on, so replicas need not agree with each
        other here; each must agree with naive replay)."""
        spec = {**SPECS, **ORDERED}[kind]
        gc = {"gc_interval": 4} if replica_cls is GarbageCollectedReplica else {}
        runs = {}
        for name in {"naive", replay}:
            c = chaos_cluster(kind, seed, name, replica_cls, **gc)
            assert all(r.replay.name == name for r in c.replicas)
            run_chaos(c, kind, seed)
            runs[name] = c
        naive = {p: runs["naive"].replicas[p] for p in runs["naive"].alive()}
        assert runs[replay].alive() == list(naive)
        for pid, r in enumerate(runs[replay].replicas):
            if pid not in naive:
                continue
            where = f"{replay} pid {pid} seed {seed}"
            assert [s[:2] for s in r.updates] == [s[:2] for s in naive[pid].updates], where
            state = (
                r.durable_gc_state()["base"]
                if isinstance(r, GarbageCollectedReplica) else spec.initial_state()
            )
            for _, _, update in r.updates:
                state = spec.apply(state, update)
            expected = spec.canonical(naive[pid].local_state())
            assert spec.canonical(r.local_state()) == expected, where
            assert spec.canonical(state) == expected, where


class TestCrashRecovery:
    def test_truncated_log_recovery_differential(self):
        """A crash that beat the last fsync: restore through ``load_log``
        with a truncated snapshot, repair via anti-entropy, and require
        fast and sorted-replay runs to agree state-for-state."""
        spec = SPECS["counter"]

        def run(fast: bool):
            c = Cluster(
                N,
                lambda p, n: UniversalReplica(
                    p, n, spec, relay=True, replay=None if fast else "naive"
                ),
                seed=7,
                fifo=True,
            )
            for i in range(10):
                c.update(i % N, C.inc(1))
            c.run()
            c.crash(1)
            for i in range(5):
                c.update(i % 2 * 2, C.dec(1))  # survivors 0 and 2
            c.run()
            c.recover(1, fsync_point=4)  # lost everything past entry 4
            c.run()
            c.anti_entropy(rounds=4)
            return {p: spec.canonical(s) for p, s in c.states().items()}

        fast_states = run(True)
        slow_states = run(False)
        assert fast_states == slow_states
        assert len(set(fast_states.values())) == 1  # and they converged

    def test_gc_state_transfer_refolds_fast_state(self):
        """A recovering replica whose peers already collected its gap gets
        a base-state handoff; the arrival-order fold must be rebuilt from
        the transferred base, not left stale."""
        spec = SPECS["counter"]
        c = Cluster(
            N,
            lambda p, n: GarbageCollectedReplica(p, n, spec, gc_interval=4),
            seed=11,
            fifo=True,
        )
        for i in range(12):
            c.update(i % N, C.inc(1))
            c.run()
        c.crash(1)
        for i in range(8):
            c.update((i % 2) * 2, C.inc(1))
            c.run()
        for pid in (0, 2):
            c.replicas[pid].collect_garbage()
        c.recover(1, fsync_point=2)
        c.run()
        c.anti_entropy(rounds=5)
        states = {p: spec.canonical(s) for p, s in c.states().items()}
        assert len(set(states.values())) == 1
        assert states[1] == 20
        assert c.replicas[1].replay.name == "fold"


@pytest.mark.parametrize("replay", ["checkpoint", "keyed"])
class TestCollectAndInstall:
    """What a collection or a state install moves under a replay's folded
    state, on one fixed schedule: each step answers as naive replay does."""

    def pair(self, replay):
        return [
            GarbageCollectedReplica(0, 2, SetSpec(), replay=name, gc_interval=10_000)
            for name in (replay, "naive")
        ]

    def agree(self, replicas):
        a, b = (r.on_query("read") for r in replicas)
        assert a == b
        assert replicas[0].local_state() == replicas[1].local_state() == a
        return a

    def test_a_collection_under_and_past_the_folded_prefix(self, replay):
        replicas = self.pair(replay)
        for r in replicas:
            for i in range(10):
                r.on_update(S.insert(i))
        self.agree(replicas)  # the first ten folded
        for r in replicas:
            for i in range(5):
                r.on_update(S.delete(i))
            r.on_message(1, ("hb", 4, 1))
            assert r.collect_garbage() == 4  # under the folded prefix
        assert self.agree(replicas) == frozenset(range(5, 10))
        for r in replicas:
            for i in range(5, 8):
                r.on_update(S.delete(i))
            r.on_message(1, ("hb", 19, 1))
            assert r.collect_garbage() == 13  # past the folded prefix
        assert self.agree(replicas) == frozenset({8, 9})

    def test_a_state_install_replaces_the_folded_state(self, replay):
        replicas = self.pair(replay)
        for r in replicas:
            for i in range(6):
                r.on_update(S.insert(i))
        self.agree(replicas)
        for r in replicas:
            r.on_update(S.delete(5))
            assert r.install_gc_state(base=frozenset(range(100, 104)), clock_floor=4)
        assert self.agree(replicas) == frozenset({4, 100, 101, 102, 103})
        for r in replicas:
            r.on_update(S.insert(104))
        assert self.agree(replicas) == frozenset({4, 100, 101, 102, 103, 104})


class TestActivation:
    def test_auto_active_only_on_commutative_specs(self):
        for spec, expect in (
            (CounterSpec(), True),
            (GSetSpec(), True),
            (MaxRegisterSpec(), True),
            (SetSpec(), False),
            (MapSpec(), False),
        ):
            r = UniversalReplica(0, 2, spec)
            assert (r.replay.name == "fold") is expect, spec.name

    @pytest.mark.parametrize("spec_cls", [SetSpec, MapSpec])
    @pytest.mark.parametrize(
        "replica_cls", [UniversalReplica, GarbageCollectedReplica]
    )
    def test_forcing_fast_path_on_order_sensitive_spec_raises(
        self, spec_cls, replica_cls
    ):
        with pytest.raises(ValueError, match="commutative"):
            replica_cls(0, 2, spec_cls(), replay="fold")

    @pytest.mark.parametrize("spec_cls", [CounterSpec, QueueSpec, LogSpec])
    def test_keyed_refuses_a_spec_without_slots(self, spec_cls):
        with pytest.raises(ValueError, match="slot"):
            make_replay(spec_cls(), "keyed")

    @pytest.mark.parametrize("gc", [False, True])
    @pytest.mark.parametrize("name", sorted(net_main.OBJECTS))
    def test_every_shipped_object_commutes_or_declares_a_slot(self, name, gc):
        """The node never falls back to the checkpoint tree: each object
        it ships takes the fold or the keyed replay."""
        spec = net_main.OBJECTS[name]()
        assert spec.commutative_updates or spec.slotted_updates, name
        r = net_main.make_factory(name, gc=gc)(0, 2)
        assert r.replay.name == ("fold" if spec.commutative_updates else "keyed")

    def test_undo_replica_opts_out(self):
        # Undo/redo *is* its own incremental strategy: choosing it on a
        # commuting spec wins over the arrival-order fold default.
        r = UniversalReplica(0, 2, CounterSpec(), replay="undo")
        assert r.replay.name == "undo"
