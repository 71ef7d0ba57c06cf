"""Section VII-C fast path: commutative objects need no log at all.

"If all the update operations commute in the sequential specification, all
linearizations would lead to the same state so a naive implementation,
that applies the updates on a replica as soon as the notification is
received, achieves update consistency."  This module is that naive
implementation — the bridge between the paper and pure CRDTs like the
counter and the grow-only set.

:class:`CommutativeReplica` keeps only the running state: O(1) updates and
queries, O(state) memory, one broadcast per update.  The constructor
refuses non-commutative specifications, because for those apply-on-receipt
famously diverges (tested in ``tests/core/test_commutative.py`` with the
set's insert/delete conflict).

This is the *log-free* end of the fast-path spectrum:
:class:`~repro.core.universal.UniversalReplica` gets the same O(1) query
cost from its default replay on commutative specs (the arrival-order
fold, :mod:`repro.core.replay`) but keeps the sorted log for
anti-entropy, persistence and GC.  Use this class when those services are
not needed and O(state) memory is the point.  Delivery must be
exactly-once: nothing here remembers which updates arrived, so a
duplicated message is applied twice and, with ``track_witness``, listed
twice in the visibility view.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.adt import UQADT, Update
from repro.sim.replica import KnownIds, Replica
from repro.util.clocks import LamportClock


class CommutativeReplica(Replica):
    """Apply-on-receipt replica for commutative UQ-ADTs."""

    __slots__ = (
        "spec",
        "clock",
        "_state",
        "applied",
        "track_witness",
        "_last_meta",
        "_visible",
        "_last_visible",
    )

    def __init__(
        self,
        pid: int,
        n: int,
        spec: UQADT,
        *,
        track_witness: bool = False,
    ) -> None:
        if not spec.commutative_updates:
            raise ValueError(
                f"{spec.name!r} updates do not commute; apply-on-receipt "
                f"would diverge — use the universal construction"
            )
        super().__init__(pid, n)
        self.spec = spec
        self.clock = LamportClock(pid)  # kept for witness timestamps only
        self._state: Any = spec.initial_state()
        self.applied = 0
        self.track_witness = track_witness
        self._last_meta: dict[str, Any] = {}
        #: every applied update's id in arrival order, append-only: a
        #: query's visibility set is the prefix applied by then, an O(1)
        #: view that quiescent queries share (nothing is ever dropped).
        self._visible: list[tuple[int, int]] = []
        self._last_visible: KnownIds | None = None

    def on_update(self, update: Update) -> Sequence[Any]:
        cl = self.clock.tick_value()
        self._state = self.spec.apply(self._state, update)
        self.applied += 1
        if self.track_witness:
            self._visible.append((cl, self.pid))
            self._last_meta = {"timestamp": (cl, self.pid)}
        return [(cl, self.pid, update)]

    def on_message(self, src: int, payload) -> Sequence[Any]:
        cl, j, update = payload
        self.clock.merge(cl)
        self._state = self.spec.apply(self._state, update)
        self.applied += 1
        if self.track_witness:
            self._visible.append((cl, j))
        return ()

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        if self.track_witness:
            cl = self.clock.tick_value()
            visible = self._last_visible = KnownIds.whole(
                self._visible, self._last_visible
            )
            self._last_meta = {
                "timestamp": (cl, self.pid),
                "visible": visible,
            }
        return self.spec.observe(self._state, name, args)

    def local_state(self) -> Any:
        return self._state

    def witness_meta(self) -> dict[str, Any]:
        meta, self._last_meta = self._last_meta, {}
        return meta
