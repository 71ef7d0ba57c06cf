"""Tests for Algorithm 1 (the universal SUC construction)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import update_consistent_convergence
from repro.core.criteria.witness import verify_suc_witness
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.sim.network import DuplicatingNetwork, ExponentialLatency, FixedLatency
from repro.sim.workload import conflict_heavy_set_workload, run_workload
from repro.specs import CounterSpec, SetSpec
from repro.specs import counter as C
from repro.specs import set_spec as S
from tests.counts import replayed

SPEC = SetSpec()


def cluster(n=3, **kw):
    return Cluster(n, lambda pid, total: UniversalReplica(pid, total, SPEC), **kw)


class TestLocalBehaviour:
    def test_own_update_immediately_visible(self):
        c = cluster()
        c.update(0, S.insert(1))
        assert c.query(0, "read") == frozenset({1})

    def test_remote_update_invisible_until_delivered(self):
        c = cluster(latency=FixedLatency(5.0))
        c.update(0, S.insert(1))
        assert c.query(1, "read") == frozenset()
        c.run()
        assert c.query(1, "read") == frozenset({1})

    def test_one_broadcast_per_update_none_per_query(self):
        c = cluster(n=4)
        c.update(0, S.insert(1))
        c.query(0, "read")
        c.query(1, "read")
        assert c.metrics.value("repro_network_messages_sent_total") == 3  # n - 1

    def test_log_length_counts_all_known_updates(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.update(1, S.insert(2))
        c.run()
        assert all(r.log_length == 2 for r in c.replicas)

    def test_replay_cost_accounting(self):
        c = cluster()
        for i in range(5):
            c.update(0, S.insert(i))
        c.query(0, "read")
        c.query(0, "read")
        assert replayed(c.replicas[0]) == 10

    def test_known_timestamps_sorted(self):
        c = cluster()
        c.update(1, S.insert(1))
        c.update(0, S.insert(2))
        c.run()
        for r in c.replicas:
            ts = r.known_timestamps()
            assert ts == sorted(ts)


class TestReplayAccounting:
    """Satellite regression: only real query replays may charge the
    Section VII-C replay counter — introspection is free."""

    def test_local_state_does_not_inflate_replay_counter(self):
        c = cluster()
        for i in range(5):
            c.update(0, S.insert(i))
        c.run()
        r0 = c.replicas[0]
        before = replayed(r0)
        r0.local_state()
        r0.local_state()
        assert replayed(r0) == before

    def test_cluster_states_does_not_inflate_replay_counter(self):
        c = cluster()
        for i in range(5):
            c.update(i % 3, S.insert(i))
        c.run()
        totals = [replayed(r) for r in c.replicas]
        c.states()  # convergence introspection sweeps every replica
        assert [replayed(r) for r in c.replicas] == totals

    def test_query_still_charges_full_replay(self):
        c = cluster()
        for i in range(5):
            c.update(0, S.insert(i))
        c.run()
        r0 = c.replicas[0]
        before = replayed(r0)
        c.query(0, "read")
        assert replayed(r0) == before + len(r0.updates)

    def test_local_state_agrees_with_query(self):
        c = cluster()
        for i in range(5):
            c.update(i % 3, S.insert(i))
        c.run()
        for pid in range(3):
            r = c.replicas[pid]
            assert SPEC.observe(r.local_state(), "read", ()) == c.query(
                pid, "read"
            )


class TestWitnessCapture:
    """Satellite regression: witness visibility capture is allocation-free
    at quiescence (queries share one cached frozenset) and invisible in
    the witness output."""

    @staticmethod
    def captured_visible(c):
        """The visibility frozensets the trace captured, in query order."""
        return [
            rec.meta["visible"] for rec in c.trace if not rec.is_update
        ]

    def test_quiescent_queries_share_the_visibility_frozenset(self):
        c = cluster()
        for i in range(4):
            c.update(0, S.insert(i))
        c.run()
        c.query(0, "read")
        c.query(0, "read")
        first, second = self.captured_visible(c)
        assert first is second  # no per-query allocation at quiescence

    def test_cache_invalidated_by_new_arrivals(self):
        c = cluster()
        for i in range(4):
            c.update(0, S.insert(i))
        c.run()
        c.query(0, "read")
        c.update(1, S.insert(99))
        c.run()
        c.query(0, "read")
        stale, fresh = self.captured_visible(c)
        assert fresh is not stale
        assert len(fresh) == len(stale) + 1

    def test_witness_identical_with_and_without_fast_path(self):
        # The arrival-order fold answers queries without replaying the
        # log but must leave witness capture untouched: the same schedule
        # run under it and under naive replay yields identical SUC witnesses.
        from repro.specs import CounterSpec
        from repro.specs import counter as C

        spec = CounterSpec()

        def run(fast: bool):
            replay = "fold" if fast else "naive"
            c = Cluster(
                2,
                lambda pid, n: UniversalReplica(pid, n, spec, replay=replay),
            )
            c.update(0, C.inc(1))
            c.query(1, "read")
            c.run()
            c.update(1, C.dec(2))
            c.query(0, "read")
            c.run()
            c.query(1, "read")
            h = c.trace.to_history()
            return h, c.trace.suc_witness(h)

        h_fast, w_fast = run(True)
        h_slow, w_slow = run(False)
        assert repr(w_fast) == repr(w_slow)
        assert verify_suc_witness(h_fast, spec, w_fast)
        assert verify_suc_witness(h_slow, spec, w_slow)


class TestConvergence:
    def test_same_final_state_everywhere(self):
        c = cluster(n=4, latency=ExponentialLatency(2.0), seed=8)
        run_workload(c, conflict_heavy_set_workload(4, 80, seed=8))
        ok, expected, states = update_consistent_convergence(c, SPEC)
        assert ok
        assert all(frozenset(s) == frozenset(expected) for s in states.values())

    def test_converged_state_is_timestamp_linearization(self):
        # Deterministic schedule: p0 and p1 update concurrently (clock 1
        # each); the tie breaks by pid, so I(1) from p0 orders before D(1)
        # from p1 — the converged set must be empty.
        c = cluster(n=2)
        c.update(0, S.insert(1))
        c.update(1, S.delete(1))
        c.run()
        assert c.query(0, "read") == frozenset()
        assert c.query(1, "read") == frozenset()

    def test_happened_before_respected(self):
        # p1 hears about I(1) before issuing D(1): the delete must win.
        c = cluster(n=2)
        c.update(0, S.insert(1))
        c.run()
        c.update(1, S.delete(1))
        c.run()
        assert c.query(0, "read") == frozenset()

    def test_out_of_order_delivery_still_converges(self):
        c = cluster(n=3, latency=ExponentialLatency(10.0), seed=5)
        for i in range(10):
            c.update(i % 3, S.insert(i))
        c.update(0, S.delete(4))
        c.run()
        states = {frozenset(s) for s in c.states().values()}
        assert len(states) == 1

    def test_convergence_after_partition_heals(self):
        c = cluster(n=4)
        c.partition([[0, 1], [2, 3]])
        c.update(0, S.insert(1))
        c.update(2, S.insert(2))
        c.update(3, S.delete(1))
        c.run()  # intra-partition traffic only
        assert c.query(0, "read") != c.query(2, "read")
        c.heal()
        c.run()
        states = {frozenset(s) for s in c.states().values()}
        assert len(states) == 1


class TestWitness:
    def test_deterministic_run_witness_verifies(self):
        c = cluster(n=3)
        c.update(0, S.insert(1))
        c.query(1, "read")
        c.run()
        c.update(2, S.delete(1))
        c.query(0, "read")
        c.run()
        c.query(1, "read")
        h = c.trace.to_history()
        assert verify_suc_witness(h, SPEC, c.trace.suc_witness(h))

    def test_fold_counts_a_duplicated_delivery_once(self):
        """A re-delivered update is recognised by its ``(clock, pid)`` id:
        the fold applies it once and the witness lists it once."""
        spec = CounterSpec()
        c = Cluster(
            2,
            lambda pid, n: UniversalReplica(pid, n, spec),
            seed=1,
            network_cls=DuplicatingNetwork,
            network_kwargs={"duplicate_probability": 0.9},
        )
        for _ in range(5):
            c.update(0, C.inc(1))
        c.run()
        c.query(1, "read")
        assert c.metrics.total("repro_network_messages_duplicated_total") > 0
        assert c.states() == {0: 5, 1: 5}
        views = [rec.meta["visible"] for rec in c.trace if "visible" in rec.meta]
        assert views
        for view in views:
            ids = list(view)
            assert len(ids) == len(set(ids)) == 5
            assert view == frozenset(ids)
        h = c.trace.to_history()
        res = verify_suc_witness(h, spec, c.trace.suc_witness(h))
        assert res, res.reason

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_runs_are_suc_proposition_4(self, seed):
        """Proposition 4, empirically: every Algorithm 1 trace carries a
        valid Definition 9 witness, whatever the adversary (seed) does."""
        c = cluster(n=3, latency=ExponentialLatency(4.0), seed=seed)
        wl = conflict_heavy_set_workload(3, 25, seed=seed)
        # Interleave queries among the updates.
        for i, item in enumerate(wl):
            c.run_until(item.time)
            c.update(item.pid, item.op)
            if i % 4 == 0:
                c.query((item.pid + 1) % 3, "read")
        c.run()
        for pid in range(3):
            c.query(pid, "read")
        h = c.trace.to_history()
        res = verify_suc_witness(h, SPEC, c.trace.suc_witness(h))
        assert res, res.reason
