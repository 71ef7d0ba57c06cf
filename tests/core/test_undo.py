"""Tests for the Karsenty–Beaudouin-Lafon undo replay (Section VII-C)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.sim.workload import collab_edit_workload, counter_workload, run_workload
from repro.specs import CounterSpec, LogSpec, SetSpec
from repro.specs import counter as C
from repro.specs import log_spec as L
from tests.counts import replayed


def undo_replica(pid, n, spec):
    return UniversalReplica(pid, n, spec, replay="undo")


class TestConstruction:
    def test_requires_invertible_spec(self):
        with pytest.raises(ValueError, match="not invertible"):
            undo_replica(0, 2, SetSpec())

    def test_accepts_counter_and_log(self):
        undo_replica(0, 2, CounterSpec())
        undo_replica(0, 2, LogSpec())


class TestCounterBehaviour:
    def cluster(self, **kw):
        return Cluster(2, lambda pid, n: undo_replica(pid, n, CounterSpec()), **kw)

    def test_local_ops(self):
        c = self.cluster()
        c.update(0, C.inc(3))
        c.update(0, C.dec(1))
        assert c.query(0, "read") == 2

    def test_queries_are_constant_time(self):
        c = self.cluster()
        for i in range(50):
            c.update(0, C.inc(1))
        r = c.replicas[0]
        before = replayed(r)
        c.query(0, "read")
        assert replayed(r) == before  # no replay at query time

    def test_late_update_repositioned_by_undo(self):
        c = self.cluster(latency=ExponentialLatency(5.0), seed=2)
        c.update(1, C.inc(10))
        for _ in range(5):
            c.update(0, C.inc(1))
        c.run()
        assert c.query(0, "read") == 15
        assert c.replicas[0].replay.undone_redone > 0


class TestLogBehaviour:
    def test_late_append_lands_at_timestamp_position(self):
        c = Cluster(2, lambda pid, n: undo_replica(pid, n, LogSpec()),
                    latency=ExponentialLatency(100.0), seed=0)
        c.update(1, L.append("early-remote"))  # stamp (1,1), delayed
        c.update(0, L.append("a"))             # stamp (1,0)
        c.update(0, L.append("b"))             # stamp (2,0)
        c.run()
        # Timestamp order: (1,0) a, (1,1) early-remote, (2,0) b.
        assert c.query(0, "read") == ("a", "early-remote", "b")
        assert c.query(1, "read") == ("a", "early-remote", "b")


class TestEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_counter_equivalent_to_naive(self, seed):
        wl = counter_workload(3, 40, seed=seed)
        spec = CounterSpec()
        naive = Cluster(3, lambda pid, n: UniversalReplica(pid, n, spec),
                        latency=ExponentialLatency(4.0), seed=seed)
        undo = Cluster(3, lambda pid, n: undo_replica(pid, n, spec),
                       latency=ExponentialLatency(4.0), seed=seed)
        assert run_workload(naive, wl) == run_workload(undo, wl)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_log_equivalent_to_naive(self, seed):
        wl = collab_edit_workload(3, 30, seed=seed)
        spec = LogSpec()
        naive = Cluster(3, lambda pid, n: UniversalReplica(pid, n, spec),
                        latency=ExponentialLatency(4.0), seed=seed)
        undo = Cluster(3, lambda pid, n: undo_replica(pid, n, spec),
                       latency=ExponentialLatency(4.0), seed=seed)
        run_workload(naive, wl)
        run_workload(undo, wl)
        for pid in range(3):
            assert naive.query(pid, "read") == undo.query(pid, "read")
