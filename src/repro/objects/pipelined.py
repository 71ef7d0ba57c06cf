"""FIFO apply-on-receipt — the pipelined-consistency baseline.

"Pipelined consistency can be implemented at a very low cost in wait-free
systems.  Indeed, it only requires FIFO reception.  However, it does not
imply convergence." (Section IV.)

Each replica applies its own updates immediately and every remote update
the moment it is delivered.  Run over FIFO channels
(``Cluster(..., fifo=True)``), every process sees each sender's updates in
that sender's program order, so its local sequence of states is explained
by *some* linearization of all updates with its own chain — Definition 7.
But two replicas interleave concurrent updates differently and, for
non-commutative objects, never reconcile: this is exactly the Fig. 2
history, regenerated in ``benchmarks/bench_prop1_impossibility.py``.

The replica records, per query, the exact update sequence it has applied
(its personal linearization) so tests can verify pipelined consistency
constructively rather than by exponential search.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.adt import UQADT, Update
from repro.sim.replica import Replica
from repro.util.clocks import LamportClock


class FifoApplyReplica(Replica):
    """Apply updates in delivery order; queries read the running state."""

    def __init__(self, pid: int, n: int, spec: UQADT) -> None:
        super().__init__(pid, n)
        self.spec = spec
        self.clock = LamportClock(pid)
        self._state: Any = spec.initial_state()
        #: the updates applied, in application order — this replica's own
        #: linearization witness for Definition 7.
        self.applied_log: list[tuple[int, int, Update]] = []
        self._last_meta: dict[str, Any] = {}

    def on_update(self, update: Update) -> Sequence[Any]:
        ts = self.clock.tick()
        self._apply(ts.clock, ts.pid, update)
        self._last_meta = {"timestamp": (ts.clock, ts.pid)}
        return [(ts.clock, ts.pid, update)]

    def on_message(self, src: int, payload) -> Sequence[Any]:
        cl, j, update = payload
        self.clock.merge(cl)
        self._apply(cl, j, update)
        return ()

    def _apply(self, cl: int, j: int, update: Update) -> None:
        self._state = self.spec.apply(self._state, update)
        self.applied_log.append((cl, j, update))

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        ts = self.clock.tick()
        self._last_meta = {
            "timestamp": (ts.clock, ts.pid),
            "applied": tuple((cl, j) for cl, j, _ in self.applied_log),
        }
        return self.spec.observe(self._state, name, args)

    def local_state(self) -> Any:
        return self._state

    def witness_meta(self) -> dict[str, Any]:
        meta, self._last_meta = self._last_meta, {}
        return meta
