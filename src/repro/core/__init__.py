"""Core formalism and algorithms of the paper.

* :mod:`repro.core.adt` — update-query abstract data types (Definition 1).
* :mod:`repro.core.history` — distributed histories (Definition 2) and
  projections.
* :mod:`repro.core.linearization` — linearizations (Definition 3).
* :mod:`repro.core.criteria` — consistency criteria (Definitions 4-10):
  eventual, strong eventual, pipelined, update, strong update, sequential.
* :mod:`repro.core.universal` — Algorithm 1, the universal strong-update-
  consistent construction.
* :mod:`repro.core.memory` — Algorithm 2, the update-consistent shared
  memory with O(1) operations.
* :mod:`repro.core.replay` / :mod:`repro.core.checkpoint` — the Section
  VII-C optimizations: four ways to answer a query from the log (the
  arrival-order fold is the apply-on-receipt path for commuting updates)
  and stable-prefix GC.
"""

from repro.core.adt import Query, UQADT, Update
from repro.core.history import Event, History
from repro.core.linearization import linearizations, sequential_membership

__all__ = [
    "UQADT",
    "Update",
    "Query",
    "Event",
    "History",
    "linearizations",
    "sequential_membership",
]
