"""Tests for the convergence analysis helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    agreed_state,
    converged,
    divergence_degree,
    expected_final_state,
    update_consistent_convergence,
)
from repro.core.universal import UniversalReplica
from repro.objects.causal import CausalApplyReplica
from repro.objects.pipelined import FifoApplyReplica
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()


def uc_cluster(n=3, **kw):
    return Cluster(n, lambda pid, total: UniversalReplica(pid, total, SPEC), **kw)


class TestConverged:
    def test_fresh_cluster_converged(self):
        assert converged(uc_cluster())

    def test_in_flight_updates_diverge(self):
        c = uc_cluster()
        c.update(0, S.insert(1))
        assert not converged(c)
        assert divergence_degree(c) == 2

    def test_drained_cluster_converges(self):
        c = uc_cluster()
        c.update(0, S.insert(1))
        c.run()
        assert converged(c)
        assert divergence_degree(c) == 1

    def test_crashed_replicas_excluded(self):
        c = uc_cluster()
        c.update(0, S.insert(1))
        c.crash(1)  # p1 will never learn — but it is not "correct"
        c.crash(2)
        c.run()
        assert converged(c)

    def test_agreed_state(self):
        c = uc_cluster()
        c.update(0, S.insert(1))
        c.run()
        assert frozenset(agreed_state(c)) == frozenset({1})

    def test_agreed_state_raises_on_divergence(self):
        c = uc_cluster()
        c.update(0, S.insert(1))
        with pytest.raises(ValueError, match="diverge"):
            agreed_state(c)


class TestExpectedFinalState:
    def test_timestamp_order_replay(self):
        c = uc_cluster(n=2)
        c.update(0, S.insert(1))  # (1, 0)
        c.update(1, S.delete(1))  # (1, 1): deletes after in (cl, pid) order
        expected = expected_final_state(c.trace, SPEC)
        assert expected == frozenset()

    def test_requires_timestamps(self):
        # The causal baseline records no witness (every Algorithm 1 replica does).
        c = Cluster(2, lambda pid, n: CausalApplyReplica(pid, n, SPEC))
        c.update(0, S.insert(1))
        with pytest.raises(ValueError, match="timestamp"):
            expected_final_state(c.trace, SPEC)

    def test_full_uc_check_positive(self):
        c = uc_cluster(latency=ExponentialLatency(4.0), seed=3)
        for i in range(10):
            c.update(i % 3, S.insert(i) if i % 2 else S.delete(i - 1))
        c.run()
        ok, expected, states = update_consistent_convergence(c, SPEC)
        assert ok
        assert set(states) == {0, 1, 2}

    def test_full_uc_check_negative_on_diverging_baseline(self):
        # The FIFO baseline stamps its updates too, but its replicas do not
        # follow the timestamp order — on a conflict they fail the check.
        c = Cluster(2, lambda pid, n: FifoApplyReplica(pid, n, SPEC),
                    fifo=True, latency=ExponentialLatency(100.0), seed=0)
        c.update(0, S.insert(3))
        c.update(1, S.delete(3))
        c.run()
        ok, _, _ = update_consistent_convergence(c, SPEC)
        assert not ok
