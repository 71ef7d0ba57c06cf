#!/usr/bin/env python
"""Model-checking a replicated object: every schedule, not just some.

Testing samples schedules; the paper's claims quantify over all of them.
For small scripts the library can *enumerate* the complete schedule space
(`repro.sim.explore`) and check a property in every leaf — small-scope
model checking.

This example exhaustively verifies the Fig. 1b conflict (concurrent
I(1)·D(2) ‖ I(2)·D(1)) plus a harder 3-process script:

* the universal construction converges in EVERY schedule, always to a
  state some linearization of the updates explains;
* the FIFO (pipelined) baseline diverges in most schedules — Prop. 1's
  mechanism is structural, not bad luck;
* as a bonus, the explorer counts how many distinct outcomes the
  adversary can force (update consistency pins the *shape* of the result,
  not one specific state).

Run: ``python examples/model_checking.py``
"""

from collections import Counter

from repro.core.adt import _canonical
from repro.core.history import History
from repro.core.linearization import update_linearization_states
from repro.core.universal import UniversalReplica
from repro.objects.pipelined import FifoApplyReplica
from repro.sim.explore import explore_outcomes
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()

FIG_1B_SCRIPT = [
    (0, S.insert(1)),
    (0, S.delete(2)),
    (1, S.insert(2)),
    (1, S.delete(1)),
]


def check(name, factory, script, fifo=False):
    leaves, explorer = explore_outcomes(2, factory, script, fifo=fifo)
    outcomes = Counter(_canonical(leaf.states[0]) if leaf.converged else "DIVERGED"
                       for leaf in leaves)
    print(f"{name}: {len(leaves)} schedule classes "
          f"({explorer.states_pruned} pruned by memoization)")
    for outcome, count in sorted(outcomes.items(), key=lambda kv: -kv[1]):
        shown = sorted(outcome) if isinstance(outcome, frozenset) else outcome
        print(f"   {count:4d} x -> {shown}")
    return leaves, outcomes


def main() -> None:
    print("== Fig. 1b conflict, exhaustively ==")
    h = History.from_processes(
        [[S.insert(1), S.delete(2)], [S.insert(2), S.delete(1)]]
    )
    allowed = update_linearization_states(h, SPEC)
    print(f"states a linearization of the updates can reach: "
          f"{sorted(sorted(s) for s in allowed)}\n")

    leaves, outcomes = check(
        "Algorithm 1",
        lambda p, n: UniversalReplica(p, n, SPEC),
        FIG_1B_SCRIPT,
    )
    assert all(leaf.converged for leaf in leaves)
    assert all(o in allowed for o in outcomes)
    print("   => converged in EVERY schedule, always inside the allowed set\n")

    leaves, outcomes = check(
        "FIFO apply (pipelined baseline)",
        lambda p, n: FifoApplyReplica(p, n, SPEC),
        FIG_1B_SCRIPT,
        fifo=True,
    )
    diverged = outcomes.get("DIVERGED", 0)
    print(f"   => diverged in {diverged} of {sum(outcomes.values())} "
          f"schedule classes — Proposition 1 is structural\n")

    print("== a 3-process script, exhaustively ==")
    script3 = [(0, S.insert(1)), (1, S.delete(1)), (2, S.insert(2))]
    leaves, explorer = explore_outcomes(
        3, lambda p, n: UniversalReplica(p, n, SPEC),
        script3, max_leaves=500_000,
    )
    assert all(leaf.converged for leaf in leaves)
    print(f"Algorithm 1, 3 processes: {len(leaves)} schedule classes, "
          f"all converged ({explorer.states_pruned} pruned)")


if __name__ == "__main__":
    main()
