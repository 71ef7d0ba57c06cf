"""Tests for state-based CRDTs: lattice laws, gossip convergence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adt import Update
from repro.crdt.state_based import (
    GSetLattice,
    LWWMapLattice,
    PNCounterLattice,
    StateBasedReplica,
    TwoPhaseSetLattice,
    gossip_round,
)
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.specs import counter as C
from repro.specs import set_spec as S


def sb_cluster(lattice_cls, n=3, **kw):
    return Cluster(
        n, lambda pid, total: StateBasedReplica(pid, total, lattice_cls()), **kw
    )


# ---------------------------------------------------------------------------
# Lattice laws (hypothesis): join is ACI and updates are inflationary.
# ---------------------------------------------------------------------------

gset_states = st.frozensets(st.integers(0, 5), max_size=4)
twop_states = st.tuples(gset_states, gset_states)
pn_states = st.tuples(
    st.tuples(*[st.integers(0, 5)] * 3), st.tuples(*[st.integers(0, 5)] * 3)
)


class TestLatticeLaws:
    @given(gset_states, gset_states, gset_states)
    @settings(max_examples=50, deadline=None)
    def test_gset_join_aci(self, a, b, c):
        lat = GSetLattice()
        assert lat.merge(a, b) == lat.merge(b, a)
        assert lat.merge(a, lat.merge(b, c)) == lat.merge(lat.merge(a, b), c)
        assert lat.merge(a, a) == a

    @given(twop_states, twop_states, twop_states)
    @settings(max_examples=50, deadline=None)
    def test_2p_join_aci(self, a, b, c):
        lat = TwoPhaseSetLattice()
        assert lat.merge(a, b) == lat.merge(b, a)
        assert lat.merge(a, lat.merge(b, c)) == lat.merge(lat.merge(a, b), c)
        assert lat.merge(a, a) == a

    @given(pn_states, pn_states, pn_states)
    @settings(max_examples=50, deadline=None)
    def test_pn_join_aci(self, a, b, c):
        lat = PNCounterLattice()
        assert lat.merge(a, b) == lat.merge(b, a)
        assert lat.merge(a, lat.merge(b, c)) == lat.merge(lat.merge(a, b), c)
        assert lat.merge(a, a) == a

    @given(gset_states, st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_gset_update_inflationary(self, state, v):
        lat = GSetLattice()
        new = lat.update(state, 0, S.insert(v))
        assert lat.leq(state, new)

    @given(pn_states, st.integers(1, 4), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_pn_update_inflationary(self, state, k, inc):
        lat = PNCounterLattice()
        op = C.inc(k) if inc else C.dec(k)
        new = lat.update(state, 1, op)
        assert lat.leq(state, new)

    def test_lww_map_merge_keeps_latest(self):
        lat = LWWMapLattice()
        a = lat.update(lat.bottom(2), 0, Update("put", ("k", "old", (1, 0))))
        b = lat.update(lat.bottom(2), 1, Update("put", ("k", "new", (2, 1))))
        assert lat.value(lat.merge(a, b)) == {"k": "new"}
        assert lat.merge(a, b) == lat.merge(b, a)

    def test_lww_map_tombstone(self):
        lat = LWWMapLattice()
        a = lat.update(lat.bottom(2), 0, Update("put", ("k", "v", (1, 0))))
        a = lat.update(a, 0, Update("remove", ("k", (2, 0))))
        assert lat.value(a) == {}


class TestReplication:
    def test_updates_send_nothing(self):
        c = sb_cluster(GSetLattice)
        c.update(0, S.insert(1))
        assert c.metrics.value("repro_network_messages_sent_total") == 0
        assert c.query(0, "read") == frozenset({1})
        assert c.query(1, "read") == frozenset()

    def test_gossip_round_spreads_state(self):
        c = sb_cluster(GSetLattice)
        c.update(0, S.insert(1))
        c.update(1, S.insert(2))
        sent = gossip_round(c)
        assert sent == 3 * 2
        c.run()
        assert all(
            c.query(pid, "read") == frozenset({1, 2}) for pid in range(3)
        )

    def test_gossip_is_idempotent(self):
        c = sb_cluster(GSetLattice)
        c.update(0, S.insert(1))
        for _ in range(3):
            gossip_round(c)
            c.run()
        assert c.query(2, "read") == frozenset({1})
        assert c.replicas[2].noop_merges > 0  # redundant gossip detected

    def test_gossip_skips_crashed(self):
        c = sb_cluster(GSetLattice)
        c.update(0, S.insert(1))
        c.crash(0)
        assert gossip_round(c) == 2 * 2
        c.run()
        # p0's update dies with it (it never gossiped) — survivors agree.
        assert c.query(1, "read") == c.query(2, "read") == frozenset()

    def test_2p_set_via_gossip(self):
        c = sb_cluster(TwoPhaseSetLattice, n=2)
        c.update(0, S.insert("x"))
        c.update(1, S.delete("x"))
        gossip_round(c)
        c.run()
        assert c.query(0, "read") == c.query(1, "read") == frozenset()

    def test_pn_counter_via_gossip(self):
        c = sb_cluster(PNCounterLattice, n=3)
        c.update(0, C.inc(5))
        c.update(1, C.dec(2))
        c.update(2, C.inc(1))
        gossip_round(c)
        c.run()
        assert all(c.query(pid, "read") == 4 for pid in range(3))

    def test_lww_map_replica_stamping(self):
        lat = LWWMapLattice()
        c = Cluster(2, lambda p, n: StateBasedReplica(p, n, lat))
        r0 = c.replicas[0]
        c.update(0, Update("put", ("k", "v0", r0.stamp())))
        r1 = c.replicas[1]
        c.update(1, Update("put", ("k", "v1", r1.stamp())))
        gossip_round(c)
        c.run()
        assert c.query(0, "read") == c.query(1, "read")

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_convergence_under_reordered_duplicated_gossip(self, seed):
        """Joins are ACI: gossip needs no ordering or dedup guarantees."""
        c = sb_cluster(GSetLattice, n=3,
                       latency=ExponentialLatency(10.0), seed=seed)
        import numpy as np

        rng = np.random.default_rng(seed)
        for i in range(20):
            c.update(int(rng.integers(3)), S.insert(int(rng.integers(6))))
            if rng.random() < 0.4:
                gossip_round(c)
        gossip_round(c)
        c.run()
        gossip_round(c)  # second round covers gossip sent pre-update
        c.run()
        states = {c.query(pid, "read") for pid in range(3)}
        assert len(states) == 1

    def test_unknown_query_rejected(self):
        c = sb_cluster(GSetLattice)
        with pytest.raises(ValueError):
            c.query(0, "size")

    def test_gset_lattice_rejects_delete(self):
        c = sb_cluster(GSetLattice)
        with pytest.raises(ValueError):
            c.update(0, S.delete(1))
