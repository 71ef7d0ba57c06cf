"""Tests for the checkpointed replica and stable-prefix GC (Section VII-C)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import GarbageCollectedReplica, StabilityViolation
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.sim.workload import conflict_heavy_set_workload, run_workload
from repro.specs import SetSpec
from repro.specs import set_spec as S
from tests.counts import collected, replayed, rollback_replayed, rollbacks

SPEC = SetSpec()


def checkpointed(pid, n, spec=SPEC, **kw):
    return UniversalReplica(pid, n, spec, replay="checkpoint", **kw)


def from_scratch(updates):
    """Algorithm 1 verbatim: one ``apply`` per update, in log order."""
    state = SPEC.initial_state()
    for _, _, update in updates:
        state = SPEC.apply(state, update)
    return state


def ckpt_cluster(n=3, interval=4, **kw):
    return Cluster(
        n,
        lambda pid, total: checkpointed(pid, total, checkpoint_interval=interval),
        **kw,
    )


class TestCheckpointedReplica:
    def test_basic_query(self):
        c = ckpt_cluster()
        c.update(0, S.insert(1))
        assert c.query(0, "read") == frozenset({1})

    def test_incremental_replay_cost(self):
        c = ckpt_cluster(n=1)
        r = c.replicas[0]
        for i in range(10):
            c.update(0, S.insert(i))
        c.query(0, "read")
        first = replayed(r)
        c.query(0, "read")  # nothing new arrived: zero additional work
        assert replayed(r) == first == 10

    def test_naive_replica_pays_full_replay(self):
        c = Cluster(1, lambda pid, n: UniversalReplica(pid, n, SPEC))
        r = c.replicas[0]
        for i in range(10):
            c.update(0, S.insert(i))
        c.query(0, "read")
        c.query(0, "read")
        assert replayed(r) == 20

    def test_late_message_triggers_rollback(self):
        c = ckpt_cluster(n=2, interval=2, latency=ExponentialLatency(10.0), seed=21)
        c.update(1, S.insert(99))  # low timestamp, delivered late
        for i in range(6):
            c.update(0, S.insert(i))
        c.query(0, "read")  # replica 0 caches its own 6 updates
        c.run()  # now the (1, pid=1) update lands below the cache
        assert rollbacks(c.replicas[0]) >= 1
        assert c.query(0, "read") == frozenset({0, 1, 2, 3, 4, 5, 99})

    def test_rollback_uses_nearest_checkpoint(self):
        c = ckpt_cluster(n=2, interval=2, latency=ExponentialLatency(10.0), seed=21)
        c.update(1, S.insert(99))
        for i in range(6):
            c.update(0, S.insert(i))
        c.query(0, "read")
        r0 = c.replicas[0]
        before = replayed(r0)
        c.run()
        c.query(0, "read")
        # Rolling back to a checkpoint replays far fewer than everything:
        # the late update has timestamp (1,1), below all 6 local ones, so
        # the replica falls back to the base checkpoint — 7 replays, not
        # 7 + history.
        assert replayed(r0) - before <= 7

    def test_validates_interval(self):
        with pytest.raises(ValueError):
            checkpointed(0, 1, checkpoint_interval=0)

    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 16]))
    @settings(max_examples=20, deadline=None)
    def test_equivalent_to_naive_replay(self, seed, interval):
        """The optimization must be observationally equivalent to
        Algorithm 1 under every delivery schedule and interval."""
        wl = conflict_heavy_set_workload(3, 40, seed=seed)
        naive = Cluster(3, lambda pid, n: UniversalReplica(pid, n, SPEC),
                        latency=ExponentialLatency(5.0), seed=seed)
        opt = Cluster(
            3,
            lambda pid, n: checkpointed(pid, n, checkpoint_interval=interval),
            latency=ExponentialLatency(5.0), seed=seed,
        )
        run_workload(naive, wl)
        run_workload(opt, wl)
        for pid in range(3):
            assert naive.query(pid, "read") == opt.query(pid, "read")


class TestRollbackAccounting:
    """Satellite regressions for checkpoint-tree rollback: boundary hits,
    repeated rollbacks, and the rollback-replay counter."""

    def warm_replica(self, n_updates=8, interval=2):
        r = checkpointed(0, 2, checkpoint_interval=interval)
        for i in range(n_updates):
            r.on_update(S.insert(i))
        r.on_query("read")  # replay once: checkpoints recorded
        return r

    @staticmethod
    def from_scratch(r):
        """Algorithm 1 verbatim over the replica's current log."""
        return SPEC.observe(from_scratch(r.updates), "read", ())

    def test_late_message_exactly_on_checkpoint_boundary(self):
        r = self.warm_replica()
        boundary = r.replay.checkpoint_indices()[-2]  # a retained interior index
        assert 0 < boundary < len(r.updates)
        # Local keys are (1,0)..(n,0); a remote update with clock ==
        # boundary sorts to insert position == boundary — exactly on it.
        r.on_message(1, (boundary, 1, S.insert(99)))
        assert rollbacks(r) == 1
        # The boundary checkpoint folds positions strictly below the
        # insert, so it survives: only entries past it were invalidated.
        assert rollback_replayed(r) == 8 - boundary
        assert r.replay.checkpoint_indices()[-1] == boundary
        assert r.on_query("read") == self.from_scratch(r)

    def test_repeated_rollbacks_match_from_scratch_replay(self):
        r = self.warm_replica(n_updates=12, interval=3)
        for clock in (9, 5, 2):  # successively earlier late arrivals
            r.on_message(1, (clock, 1, S.insert(100 + clock)))
            assert r.on_query("read") == self.from_scratch(r)
        assert rollbacks(r) == 3

    def test_rollback_counter_matches_reapplied_updates(self):
        # Every log entry is replayed once when a query first covers it,
        # plus once more per rollback invalidation — so at quiescence the
        # replay total telescopes to log length + rollback_replayed.
        r = self.warm_replica(n_updates=12, interval=3)
        for clock in (9, 5, 2):
            r.on_message(1, (clock, 1, S.insert(100 + clock)))
            r.on_query("read")
        assert rollback_replayed(r) > 0
        assert replayed(r) == len(r.updates) + rollback_replayed(r)

    def test_quiescent_rollback_counter_stays_zero(self):
        r = self.warm_replica()
        r.on_query("read")
        r.on_query("read")
        assert rollback_replayed(r) == 0
        assert rollbacks(r) == 0


class CountingSetSpec(SetSpec):
    """A set spec that counts its folds (per-update, batch and in-place,
    by length) and its state copies (thaws and freezes)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.applies = 0
        self.batches = []
        self.folds = []
        self.thaws = 0
        self.freezes = 0

    def apply(self, state, update):
        self.applies += 1
        return super().apply(state, update)

    def apply_batch(self, state, updates):
        self.batches.append(len(updates))
        return super().apply_batch(state, updates)

    def thaw(self, state):
        self.thaws += 1
        return super().thaw(state)

    def fold_into(self, work, updates):
        self.folds.append(len(updates))
        return super().fold_into(work, updates)

    def freeze(self, work):
        self.freezes += 1
        return super().freeze(work)


class TestColdFold:
    """A long pending suffix (a restored log, a caught-up rejoiner) folds
    in strides that halve the distance to the tip — O(log n) in-place
    folds, the stops being the checkpoints thinning keeps and the only
    places the tip is frozen; the short suffix a steady-state query sees
    is one fold and no copy.  Counted in calls."""

    def restored(self, n_entries, *, interval=64):
        spec = CountingSetSpec()
        r = GarbageCollectedReplica(0, 3, spec, checkpoint_interval=interval)
        r.load_log(
            (cl, cl % 2, S.insert(cl) if cl % 7 else S.delete(cl - 1))
            for cl in range(1, n_entries + 1)
        )
        assert spec.applies == 0 and spec.batches == [] and spec.folds == []
        return r, spec

    SIZES = (1_000, 8_000, 50_000)

    def test_a_restored_log_folds_in_halving_strides(self):
        for n_entries in self.SIZES:
            r, spec = self.restored(n_entries)
            answer = r.on_query("read")
            assert len(spec.folds) <= 2 * math.log2(n_entries / 64) + 4
            assert spec.applies == 0 and spec.batches == []
            assert sum(spec.folds) == n_entries
            # one private copy of the base, one frozen per checkpoint
            assert spec.thaws == 1
            assert spec.freezes == len(r.replay.checkpoint_indices()) - 1
            assert replayed(r) == n_entries == len(r.updates)
            assert answer == SPEC.observe(from_scratch(r.updates), "read", ())

    def test_strides_stop_on_the_checkpoints_thinning_keeps(self):
        for n_entries in self.SIZES:
            r, spec = self.restored(n_entries, interval=16)
            r.on_query("read")
            idx = r.replay.checkpoint_indices()
            assert idx[0] == 0 and all(i % 16 == 0 for i in idx)
            # every full-interval stop survived: no state was copied to
            # be dropped again
            stops = [sum(spec.folds[:k + 1]) for k in range(len(spec.folds))]
            assert idx[1:] == [stop for stop in stops if stop % 16 == 0]
            # the tree's own invariant: no interior checkpoint is droppable
            tip = idx[-1]
            for i in range(1, len(idx) - 1):
                assert idx[i + 1] - idx[i - 1] > tip - idx[i + 1]

    @pytest.mark.parametrize("lateness", [1, 50, 700, 5_000])
    def test_late_message_after_a_cold_fold_replays_in_its_lateness(
        self, lateness
    ):
        r, spec = self.restored(8_000)
        r.on_query("read")
        # lands `lateness` entries below the tip (own clocks are 1..8000)
        r.on_message(2, (8_000 - lateness, 2, S.insert(-1)))
        assert rollbacks(r) == 1
        assert rollback_replayed(r) <= 2 * lateness + 2 * 64
        r.on_query("read")
        assert replayed(r) == len(r.updates) + rollback_replayed(r)

    def test_a_short_suffix_is_one_fold_and_no_copy(self):
        r, spec = self.restored(640)
        r.on_query("read")
        spec.reset()
        for i in range(3):
            r.on_message(1, (10_000 + i, 1, S.insert(-i)))
        r.on_query("read")
        assert spec.folds == [3] and spec.thaws == spec.freezes == 0
        # crossing the next checkpoint position (704) freezes the tip once
        for i in range(61):
            r.on_message(1, (20_000 + i, 1, S.insert(-100 - i)))
        r.on_query("read")
        assert spec.folds == [3, 61] and spec.thaws == 0 and spec.freezes == 1
        assert spec.applies == 0 and spec.batches == []
        assert r.replay.checkpoint_indices()[-1] == 704

    def test_peek_folds_a_long_suffix_in_one_batch_and_keeps_nothing(self):
        # LocalCluster.settle() polls local_state() on a rejoiner nobody
        # has queried: each poll is one batch fold, not n frozenset copies
        r, spec = self.restored(8000)
        state = r.local_state()
        assert spec.applies == 0 and spec.batches == [8000]
        assert replayed(r) == 0 and r.replay.checkpoint_indices() == [0]
        assert state == r.on_query("read")

    def test_rollback_accounting_survives_the_batch_path(self):
        r, spec = self.restored(640)
        r.on_query("read")
        for clock in (600, 300, 100):  # late: lands inside the replayed prefix
            r.on_message(2, (clock, 2, S.insert(-clock)))
            r.on_query("read")
        assert rollbacks(r) == 3
        assert replayed(r) == len(r.updates) + rollback_replayed(r)
        assert r.on_query("read") == SPEC.observe(from_scratch(r.updates), "read", ())


class TestGarbageCollection:
    def gc_cluster(self, n=3, gc_interval=5, **kw):
        kw.setdefault("fifo", True)
        return Cluster(
            n,
            lambda pid, total: GarbageCollectedReplica(
                pid, total, SPEC, gc_interval=gc_interval, checkpoint_interval=4
            ),
            **kw,
        )

    def test_stable_prefix_collected(self):
        c = self.gc_cluster()
        for i in range(20):
            c.update(i % 3, S.insert(i))
            c.run()
        # Everyone heard everyone's clock advance: most of the prefix is
        # stable and reclaimable.
        for r in c.replicas:
            r.collect_garbage()
        assert any(collected(r) > 0 for r in c.replicas)

    def test_states_correct_after_gc(self):
        c = self.gc_cluster()
        for i in range(20):
            c.update(i % 3, S.insert(i))
            c.run()
        c.update(0, S.delete(3))
        c.run()
        for r in c.replicas:
            r.collect_garbage()
        expected = frozenset(range(20)) - {3}
        assert all(c.query(pid, "read") == expected for pid in range(3))

    def test_heartbeats_advance_frontier_without_updates(self):
        c = self.gc_cluster(n=2)
        c.update(0, S.insert(1))
        c.run()
        # Without hearing from p1, p0 cannot collect (frontier = 0).
        assert c.replicas[0].collect_garbage() == 0
        hb = c.replicas[1].heartbeat()
        c.network.broadcast(1, hb, c.now)
        c.run()
        assert c.replicas[0].collect_garbage() >= 1

    def test_log_stays_bounded_with_gc(self):
        c = self.gc_cluster(gc_interval=3)
        for i in range(60):
            c.update(i % 3, S.insert(i % 7))
            c.run()
        naive_log = 60
        assert all(r.log_length < naive_log // 2 for r in c.replicas)

    def test_stability_violation_detected_on_reordering_network(self):
        # Non-FIFO + aggressive GC: an in-flight older message can land
        # under the collected frontier; the replica must fail loudly.
        c = Cluster(
            2,
            lambda pid, total: GarbageCollectedReplica(
                pid, total, SPEC, gc_interval=1, checkpoint_interval=2
            ),
            fifo=False,
            latency=ExponentialLatency(10.0),
            seed=3,
        )
        try:
            for i in range(30):
                c.update(i % 2, S.insert(i))
                if i % 3 == 0:
                    c.run_until(c.now + 1.0)
            c.run()
        except StabilityViolation:
            return  # detected, as designed
        # If the schedule happened to stay ordered, states must be right.
        states = {frozenset(s) for s in c.states().values()}
        assert len(states) == 1

    def test_collecting_k_entries_is_one_batch_fold(self):
        spec = CountingSetSpec()
        r = GarbageCollectedReplica(0, 2, spec, gc_interval=10_000)
        for i in range(50):
            r.on_update(S.insert(i) if i % 5 else S.delete(i - 1))
        r.on_message(1, ("hb", 30, 1))
        spec.reset()
        assert r.collect_garbage() == 30
        assert spec.applies == 0 and spec.batches == [30]
        # the same base and frontier the per-entry fold produced
        folded = SPEC.initial_state()
        for i in range(30):
            folded = SPEC.apply(folded, S.insert(i) if i % 5 else S.delete(i - 1))
        assert r.durable_gc_state()["base"] == folded
        assert r.durable_gc_state()["frontier"] == (30, 0)

    def test_gc_interval_validated(self):
        with pytest.raises(ValueError):
            GarbageCollectedReplica(0, 1, SPEC, gc_interval=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_gc_equivalent_to_naive_on_fifo(self, seed):
        wl = conflict_heavy_set_workload(3, 30, seed=seed)
        naive = Cluster(3, lambda pid, n: UniversalReplica(pid, n, SPEC),
                        latency=ExponentialLatency(5.0), seed=seed, fifo=True)
        gc = Cluster(
            3,
            lambda pid, n: GarbageCollectedReplica(pid, n, SPEC, gc_interval=4),
            latency=ExponentialLatency(5.0), seed=seed, fifo=True,
        )
        run_workload(naive, wl)
        run_workload(gc, wl)
        for pid in range(3):
            assert naive.query(pid, "read") == gc.query(pid, "read")
