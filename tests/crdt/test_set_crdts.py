"""Behavioural tests for the Section VI set CRDTs.

Each type's documented conflict policy is pinned down on the concurrent
insert/delete scenarios the paper's case study revolves around.
"""

from __future__ import annotations

import pytest

from repro.crdt import (
    CSetReplica,
    GSetReplica,
    LWWSetReplica,
    ORSetReplica,
    PNSetReplica,
    SET_CRDTS,
    TwoPhaseSetReplica,
)
from repro.sim import Cluster
from repro.specs import set_spec as S


def make(cls, n=2, **kw):
    return Cluster(n, lambda pid, total: cls(pid, total), **kw)


def isolated_fig_1b(cluster):
    """Fig. 1b as a run: both processes update before hearing each other."""
    cluster.partition([[0], [1]])
    cluster.update(0, S.insert(1))
    cluster.update(0, S.delete(2))
    cluster.update(1, S.insert(2))
    cluster.update(1, S.delete(1))
    cluster.heal()
    cluster.run()


class TestGSet:
    def test_union_semantics(self):
        c = make(GSetReplica)
        c.update(0, S.insert("a"))
        c.update(1, S.insert("b"))
        c.run()
        assert c.query(0, "read") == frozenset({"a", "b"})

    def test_delete_rejected(self):
        c = make(GSetReplica)
        with pytest.raises(ValueError):
            c.update(0, S.delete("a"))

    def test_contains(self):
        c = make(GSetReplica)
        c.update(0, S.insert("a"))
        assert c.query(0, "contains", ("a",)) is True
        assert c.query(0, "contains", ("b",)) is False


class TestTwoPhaseSet:
    def test_insert_then_delete(self):
        c = make(TwoPhaseSetReplica)
        c.update(0, S.insert(1))
        c.update(0, S.delete(1))
        assert c.query(0, "read") == frozenset()

    def test_delete_is_forever(self):
        # The documented wart: re-insertion after deletion is impossible.
        c = make(TwoPhaseSetReplica)
        c.update(0, S.insert(1))
        c.update(0, S.delete(1))
        c.update(0, S.insert(1))
        c.run()
        assert c.query(0, "read") == frozenset()
        assert c.query(1, "read") == frozenset()

    def test_concurrent_insert_delete_delete_wins(self):
        c = make(TwoPhaseSetReplica)
        isolated_fig_1b(c)
        # Tombstones for both 1 and 2: everything dead.
        assert c.query(0, "read") == frozenset()
        assert c.query(1, "read") == frozenset()


class TestPNSet:
    def test_double_insert_needs_double_delete(self):
        c = make(PNSetReplica)
        c.partition([[0], [1]])
        c.update(0, S.insert(1))
        c.update(1, S.insert(1))
        c.heal()
        c.run()
        c.update(0, S.delete(1))
        c.run()
        assert c.query(1, "read") == frozenset({1})  # count 2 - 1 = 1: still in!
        c.update(1, S.delete(1))
        c.run()
        assert c.query(0, "read") == frozenset()

    def test_negative_counter_swallows_insert(self):
        c = make(PNSetReplica)
        c.update(0, S.delete(1))  # counter -1
        c.update(0, S.insert(1))  # back to 0: still absent
        assert c.query(0, "read") == frozenset()

    def test_converges(self):
        c = make(PNSetReplica)
        isolated_fig_1b(c)
        assert c.query(0, "read") == c.query(1, "read")


class TestCSet:
    def test_local_noop_suppression(self):
        c = make(CSetReplica)
        c.update(0, S.delete(1))  # locally absent: suppressed, not sent
        assert c.replicas[0].suppressed == 1
        assert c.metrics.value("repro_network_messages_sent_total") == 0

    def test_no_negative_counters_locally(self):
        c = make(CSetReplica)
        c.update(0, S.delete(1))
        c.update(0, S.insert(1))
        assert c.query(0, "read") == frozenset({1})  # unlike the PN-Set

    def test_asymmetric_delta_anomaly(self):
        # The C-Set's documented flaw: concurrent conditional decisions
        # commit asymmetric deltas; counters can exceed 1 and a single
        # delete no longer empties the set anywhere.
        c = make(CSetReplica)
        c.partition([[0], [1]])
        c.update(0, S.insert(1))  # both see 1 absent -> both send +1
        c.update(1, S.insert(1))
        c.heal()
        c.run()
        assert c.replicas[0].counts[1] == 2  # the anomaly
        c.update(0, S.delete(1))  # one -1: element survives
        c.run()
        assert c.query(1, "read") == frozenset({1})


class TestORSet:
    def test_observed_remove_only_kills_observed_tags(self):
        c = make(ORSetReplica)
        c.partition([[0], [1]])
        c.update(0, S.insert(1))  # tag t0, unseen by p1
        c.update(1, S.insert(1))  # tag t1
        c.update(1, S.delete(1))  # observes only t1
        c.heal()
        c.run()
        # t0 survives: insert wins.
        assert c.query(0, "read") == frozenset({1})
        assert c.query(1, "read") == frozenset({1})

    def test_delete_after_sync_removes(self):
        c = make(ORSetReplica)
        c.update(0, S.insert(1))
        c.run()
        c.update(1, S.delete(1))  # observed t0
        c.run()
        assert c.query(0, "read") == frozenset()

    def test_fig_1b_scenario_converges_to_both(self):
        # The paper: "the insertions will win and the OR-set will converge
        # to {1, 2}" — a state NO update linearization reaches.
        c = make(ORSetReplica)
        isolated_fig_1b(c)
        assert c.query(0, "read") == frozenset({1, 2})
        assert c.query(1, "read") == frozenset({1, 2})

    def test_reinsertion_after_delete_works(self):
        c = make(ORSetReplica)
        c.update(0, S.insert(1))
        c.run()
        c.update(1, S.delete(1))
        c.run()
        c.update(0, S.insert(1))
        c.run()
        assert c.query(1, "read") == frozenset({1})

    def test_tombstones_accumulate(self):
        c = make(ORSetReplica)
        for _ in range(5):
            c.update(0, S.insert(1))
            c.update(0, S.delete(1))
        c.run()
        assert c.replicas[1].tombstone_count == 5

    def test_late_insert_of_tombstoned_tag_stays_dead(self):
        # Delete message can overtake its insert on a reordering network;
        # the tombstone must still win when the insert finally lands.
        from repro.sim.network import ExponentialLatency

        c = Cluster(3, lambda pid, n: ORSetReplica(pid, n),
                    latency=ExponentialLatency(10.0), seed=1)
        c.update(0, S.insert(1))
        c.update(0, S.delete(1))
        c.run()
        for pid in range(3):
            assert c.query(pid, "read") == frozenset()


class TestLWWSet:
    def test_later_stamp_wins(self):
        c = make(LWWSetReplica)
        c.update(0, S.insert(1))
        c.run()
        c.update(1, S.delete(1))  # higher clock after delivery
        c.run()
        assert c.query(0, "read") == frozenset()

    def test_concurrent_ops_resolved_by_stamp(self):
        c = make(LWWSetReplica)
        isolated_fig_1b(c)
        # Stamps: I(1)@(1,0), D(2)@(2,0), I(2)@(1,1), D(1)@(2,1).
        # Per element 1: I(1,0) vs D(2,1) -> delete wins.
        # Per element 2: D(2,0) vs I(1,1) -> delete wins.
        assert c.query(0, "read") == frozenset()
        assert c.query(1, "read") == frozenset()

    def test_bias_validated(self):
        with pytest.raises(ValueError):
            LWWSetReplica(0, 2, bias="random")

    def test_tie_resolved_by_bias(self):
        r = LWWSetReplica(0, 2, bias="insert")
        r._store("x", (1, 0), True)
        r._store("x", (1, 0), False)  # same stamp, conflicting flag
        assert r.value() == frozenset({"x"})
        r2 = LWWSetReplica(0, 2, bias="delete")
        r2._store("x", (1, 0), True)
        r2._store("x", (1, 0), False)
        assert r2.value() == frozenset()


class TestAllConverge:
    @pytest.mark.parametrize("name", [n for n in SET_CRDTS if n != "G-Set"])
    def test_insert_delete_mix_converges(self, name):
        from repro.sim.network import ExponentialLatency
        from repro.sim.workload import conflict_heavy_set_workload, run_workload

        cls = SET_CRDTS[name]
        c = Cluster(3, lambda pid, n: cls(pid, n),
                    latency=ExponentialLatency(3.0), seed=17)
        wl = [w for w in conflict_heavy_set_workload(3, 60, seed=17) if w.is_update]
        run_workload(c, wl)
        states = {c.replicas[pid].value() for pid in range(3)}
        assert len(states) == 1, f"{name} diverged: {states}"
