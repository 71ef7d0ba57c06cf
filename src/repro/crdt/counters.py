"""G-Counter and PN-Counter — the textbook commutative CRDTs.

The counter is the paper's first example of a "pure CRDT" (Section VII-C):
all updates commute, so apply-on-receipt is already update consistent.
The G-Counter keeps one component per process (grow-only vector, value =
sum); the PN-Counter is a pair of G-Counters (increments, decrements).

These replicas answer :class:`repro.specs.counter.CounterSpec`'s query
vocabulary, so they can stand in for a ``UniversalReplica`` of that spec.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.adt import Update
from repro.crdt.base import OpBasedReplica


class GCounterReplica(OpBasedReplica):
    """Grow-only counter: per-process increment components."""

    def __init__(self, pid: int, n: int) -> None:
        super().__init__(pid, n)
        self.components = [0] * n

    def on_update(self, update: Update) -> Sequence[Any]:
        self._expect(update, "inc")
        (k,) = update.args
        if k < 0:
            raise ValueError("G-Counter only grows; use PN-Counter to decrement")
        ts = self._stamp()
        self.components[self.pid] += k
        return [(ts.clock, ts.pid, k)]

    def on_message(self, src: int, payload) -> Sequence[Any]:
        cl, j, k = payload
        self._merge(cl)
        self.components[j] += k
        return ()

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        self._stamp()
        if name == "read":
            return sum(self.components)
        if name == "sign":
            total = sum(self.components)
            return 0 if total == 0 else 1
        raise ValueError(f"unknown counter query {name!r}")

    def local_state(self) -> int:
        return sum(self.components)

    def value(self) -> int:  # not a set type; keep the introspection useful
        return sum(self.components)


class PNCounterReplica(OpBasedReplica):
    """Increment/decrement counter: two grow-only component vectors."""

    def __init__(self, pid: int, n: int) -> None:
        super().__init__(pid, n)
        self.pos = [0] * n
        self.neg = [0] * n

    def on_update(self, update: Update) -> Sequence[Any]:
        self._expect(update, "inc", "dec")
        (k,) = update.args
        ts = self._stamp()
        if update.name == "inc":
            self.pos[self.pid] += k
        else:
            self.neg[self.pid] += k
        return [(ts.clock, ts.pid, update.name, k)]

    def on_message(self, src: int, payload) -> Sequence[Any]:
        cl, j, name, k = payload
        self._merge(cl)
        if name == "inc":
            self.pos[j] += k
        else:
            self.neg[j] += k
        return ()

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        self._stamp()
        total = sum(self.pos) - sum(self.neg)
        if name == "read":
            return total
        if name == "sign":
            return 0 if total == 0 else (1 if total > 0 else -1)
        raise ValueError(f"unknown counter query {name!r}")

    def local_state(self) -> int:
        return sum(self.pos) - sum(self.neg)

    def value(self) -> int:
        return self.local_state()
