"""Grow-only set (G-Set) — insert-only, hence commutative (a pure CRDT).

Cited in Section VI as the simplest eventually consistent set; insertion of
two elements commutes, so the naive apply-on-receipt implementation is
already update consistent (Section VII-C).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.adt import Query, UQADT, Update


def insert(v: Hashable) -> Update:
    return Update("insert", (v,))


def read(expected: frozenset | set) -> Query:
    return Query("read", (), frozenset(expected))


def contains(v: Hashable, expected: bool) -> Query:
    return Query("contains", (v,), bool(expected))


class GSetSpec(UQADT):
    """Insert-only set; all updates commute."""

    name = "g-set"
    commutative_updates = True

    def initial_state(self) -> frozenset:
        return frozenset()

    def apply(self, state: frozenset, update: Update) -> frozenset:
        if update.name == "insert":
            (v,) = update.args
            return state | {v}
        raise ValueError(f"unknown g-set update {update.name!r} (g-set has no delete)")

    def thaw(self, state: frozenset) -> set:
        return set(state)

    def fold_into(self, work: set, updates: Sequence[Update]) -> set:
        add = work.add
        for u in updates:
            if u.name != "insert":
                raise ValueError(
                    f"unknown g-set update {u.name!r} (g-set has no delete)"
                )
            add(u.args[0])
        return work

    def freeze(self, work: set) -> frozenset:
        return frozenset(work)

    def probe_updates(self) -> Sequence[Update]:
        # Re-inserting an element is the only interesting interaction.
        return (insert("a"), insert("b"), insert("a"))

    def observe(self, state: frozenset | set, name: str, args: tuple[Hashable, ...] = ()) -> object:
        if name == "read":
            return frozenset(state)
        if name == "contains":
            (v,) = args
            return v in state
        raise ValueError(f"unknown g-set query {name!r}")

    def solve_state(self, constraints: Sequence[Query]) -> frozenset | None:
        pinned: frozenset | None = None
        must_have: set = set()
        must_lack: set = set()
        for q in constraints:
            if q.name == "read":
                value = frozenset(q.output)
                if pinned is not None and pinned != value:
                    return None
                pinned = value
            elif q.name == "contains":
                (v,) = q.args
                (must_have if q.output else must_lack).add(v)
            else:
                return None
        if must_have & must_lack:
            return None
        if pinned is not None:
            if not must_have <= pinned or pinned & must_lack:
                return None
            return pinned
        return frozenset(must_have)
