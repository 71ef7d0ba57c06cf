"""Tests for the pipelined (FIFO) and causal baselines — the two halves of
Proposition 1's impossibility."""

from __future__ import annotations

from repro.core.adt import Update
from repro.objects import make_replicated
from repro.objects.causal import CausalApplyReplica
from repro.objects.pipelined import FifoApplyReplica
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.specs import SetSpec, LogSpec
from repro.specs import log_spec as L
from repro.specs import set_spec as S

SPEC = SetSpec()


def fifo_cluster(n=2, **kw):
    kw.setdefault("fifo", True)
    return Cluster(n, lambda pid, total: FifoApplyReplica(pid, total, SPEC), **kw)


class TestFifoApply:
    def test_local_sequential_semantics(self):
        c = fifo_cluster()
        c.update(0, S.insert(1))
        c.update(0, S.delete(1))
        assert c.query(0, "read") == frozenset()

    def test_sender_order_preserved(self):
        c = fifo_cluster(latency=ExponentialLatency(5.0), seed=7)
        c.update(0, S.insert(1))
        c.update(0, S.delete(1))
        c.run()
        # FIFO: p1 applied insert-then-delete, never delete-then-insert.
        assert c.query(1, "read") == frozenset()
        assert [u.name for _, _, u in c.replicas[1].applied_log] == ["insert", "delete"]

    def test_applied_log_is_a_pc_witness(self):
        # Each replica's applied sequence, restricted to updates, must be
        # a valid linearization: replaying it never contradicts its own
        # interleaved queries (constructive Definition 7 check).
        c = fifo_cluster(latency=ExponentialLatency(3.0), seed=4)
        c.update(0, S.insert(1))
        c.update(1, S.insert(2))
        c.run()
        c.update(0, S.delete(2))
        c.run()
        for pid in range(2):
            word = [u for _, _, u in c.replicas[pid].applied_log]
            state = SPEC.replay(word)
            assert c.query(pid, "read") == state

    def test_divergence_on_concurrent_conflicts(self):
        # The Fig. 2 mechanism: different interleavings at each replica.
        c = fifo_cluster(latency=ExponentialLatency(100.0), seed=0)
        c.update(0, S.insert(3))
        c.update(1, S.delete(3))
        # p0 applied I(3) then will apply D(3) -> ∅;
        # p1 applied D(3) then will apply I(3) -> {3}.
        c.run()
        assert c.query(0, "read") == frozenset()
        assert c.query(1, "read") == frozenset({3})  # diverged forever


class TestCausalApply:
    def causal_cluster(self, n=3, **kw):
        return Cluster(n, lambda pid, total: CausalApplyReplica(pid, total, SPEC), **kw)

    def test_causal_order_enforced_across_processes(self):
        # p0 inserts; p1 sees it and deletes; p2 receives the delete FIRST
        # but must buffer it until the insert arrives.
        c = self.causal_cluster(latency=ExponentialLatency(10.0), seed=14)
        c.update(0, S.insert(1))
        c.run()  # p1 and p2 now have the insert
        c.update(1, S.delete(1))
        c.run()
        for pid in range(3):
            assert c.query(pid, "read") == frozenset()

    def test_buffering_happens(self):
        c = self.causal_cluster(n=3)
        # Manually race: p0's insert held toward p2, p1's causally later
        # delete arrives first and must wait.
        c.network.hold(0, 2)
        c.update(0, S.insert(1))
        c.run()  # p1 got it; p2 did not
        c.update(1, S.delete(1))
        c.run()
        assert c.query(2, "read") == frozenset()  # delete is buffered
        assert len(c.replicas[2].buffer) == 1
        c.network.release(0, 2, c.now)
        c.run()
        assert c.query(2, "read") == frozenset()
        assert c.replicas[2].buffer == []
        # The high-water mark counts the released insert joining the queue
        # momentarily before the drain empties both.
        assert c.replicas[2].max_buffered == 2

    def test_concurrent_conflicts_still_diverge(self):
        # Causal delivery does not arbitrate concurrency: Prop. 1 again.
        c = self.causal_cluster(n=2)
        c.partition([[0], [1]])
        c.update(0, S.insert(3))
        c.update(1, S.delete(3))
        c.heal()
        c.run()
        assert c.query(0, "read") != c.query(1, "read")

    def test_log_interleaving_respects_causality(self):
        spec = LogSpec()
        c = Cluster(2, lambda pid, n: CausalApplyReplica(pid, n, spec))
        c.update(0, L.append("a"))
        c.run()
        c.update(1, L.append("b"))  # causally after "a"
        c.run()
        assert c.query(0, "read") == ("a", "b")
        assert c.query(1, "read") == ("a", "b")


class TestFactoryIntegration:
    def test_fifo_strategy(self):
        cluster, handles = make_replicated(SetSpec(), 2, strategy="fifo")
        assert isinstance(cluster.replicas[0], FifoApplyReplica)
        handles[0].insert(1)
        cluster.run()
        assert handles[1].read() == frozenset({1})

    def test_causal_strategy(self):
        cluster, handles = make_replicated(SetSpec(), 2, strategy="causal")
        assert isinstance(cluster.replicas[0], CausalApplyReplica)
        handles[0].insert(1)
        cluster.run()
        assert handles[1].read() == frozenset({1})
