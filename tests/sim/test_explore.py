"""Small-scope model checking tests: properties over ALL schedules."""

from __future__ import annotations

import pytest

from repro.core.adt import _canonical
from repro.core.universal import UniversalReplica
from repro.objects.pipelined import FifoApplyReplica
from repro.sim.explore import ScheduleExplorer, explore_outcomes
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()


def universal(pid, n):
    return UniversalReplica(pid, n, SPEC)


def fifo(pid, n):
    return FifoApplyReplica(pid, n, SPEC)


class TestMechanics:
    def test_single_update_two_schedules_same_outcome(self):
        # One update, one message: deliver before or after "end" — but the
        # leaf requires drain, so there is exactly one leaf configuration.
        leaves, explorer = explore_outcomes(2, universal, [(0, S.insert(1))])
        assert len(leaves) >= 1
        for leaf in leaves:
            assert leaf.converged
            assert _canonical(leaf.states[0]) == frozenset({1})

    def test_memoization_prunes(self):
        script = [(0, S.insert(1)), (1, S.insert(2)), (0, S.delete(1))]
        _, explorer = explore_outcomes(2, universal, script)
        assert explorer.states_pruned > 0

    def test_leaf_budget_enforced(self):
        script = [(i % 2, S.insert(i)) for i in range(6)]
        with pytest.raises(RuntimeError, match="max_leaves"):
            explore_outcomes(2, universal, script, max_leaves=1)

    def test_fifo_restricts_choices(self):
        script = [(0, S.insert(1)), (0, S.insert(2))]
        plain, _ = explore_outcomes(2, universal, script, fifo=False)
        fifo_leaves, _ = explore_outcomes(2, universal, script, fifo=True)
        # FIFO forbids the reordering schedules, so it explores fewer or
        # equally many configurations.
        assert len(fifo_leaves) <= len(plain)


class TestAlgorithm1OverAllSchedules:
    @pytest.mark.parametrize("script", [
        [(0, S.insert(1)), (1, S.delete(1))],
        [(0, S.insert(1)), (1, S.insert(2)), (0, S.delete(2))],
        [(0, S.insert(1)), (0, S.delete(1)), (1, S.insert(1))],
    ])
    def test_every_schedule_converges(self, script):
        leaves, explorer = explore_outcomes(2, universal, script)
        assert explorer.leaves_seen == len(leaves) > 0
        for leaf in leaves:
            assert leaf.converged, leaf

    def test_every_leaf_state_is_an_update_linearization_state(self):
        from repro.core.history import History
        from repro.core.linearization import update_linearization_states

        # p1 inserts, p0 (lower pid) deletes concurrently: when the delete
        # is stamped without having seen the insert it ties at clock 1 and
        # the pid breaks the tie in the delete's favour (insert survives);
        # when p0 saw the insert first, the delete is causally later and
        # wins.  Both outcomes are update linearization states.
        script = [(1, S.insert(2)), (0, S.delete(2))]
        h = History.from_processes([[S.delete(2)], [S.insert(2)]])
        allowed = update_linearization_states(h, SPEC)
        leaves, _ = explore_outcomes(2, universal, script)
        reached = {_canonical(leaf.states[0]) for leaf in leaves}
        assert reached <= allowed
        # The adversary realizes more than one outcome (stamps depend on
        # the schedule), all of them legal.
        assert reached == {frozenset(), frozenset({2})}

    def test_three_processes_small_script(self):
        script = [(0, S.insert(1)), (1, S.delete(1)), (2, S.insert(2))]
        leaves, _ = explore_outcomes(3, universal, script, max_leaves=500_000)
        assert leaves
        assert all(leaf.converged for leaf in leaves)


class TestFifoBaselineOverAllSchedules:
    def test_divergence_is_schedule_robust(self):
        # Prop. 1's mechanism: for the concurrent conflict, SOME schedule
        # diverges — and with FIFO apply it is in fact most of them.
        script = [(0, S.insert(3)), (1, S.delete(3))]
        leaves, _ = explore_outcomes(2, fifo, script, fifo=True)
        assert any(not leaf.converged for leaf in leaves)

    def test_causally_ordered_scripts_always_converge(self):
        # No concurrency: every schedule of a single-writer script agrees.
        script = [(0, S.insert(1)), (0, S.delete(1)), (0, S.insert(2))]
        leaves, _ = explore_outcomes(2, fifo, script, fifo=True)
        assert all(leaf.converged for leaf in leaves)
        assert all(
            _canonical(leaf.states[1]) == frozenset({2}) for leaf in leaves
        )
