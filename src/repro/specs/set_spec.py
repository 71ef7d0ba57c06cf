"""The replicated set ``S_Val`` — the paper's running example (Example 1).

Updates: ``I(v)`` (insert) and ``D(v)`` (delete).  Queries: ``R`` (read the
whole content, returning a finite subset of the support) plus a
``contains(v)`` convenience query (derivable from ``R``; having it lets
tests and workloads exercise queries that reveal only part of the state).

States are ``frozenset`` values; the transition function is pure.  A
replica's replay tip is a working ``set`` (:meth:`SetSpec.thaw`) that
:meth:`SetSpec.fold_into` updates in place and :meth:`SetSpec.freeze`
snapshots back to a ``frozenset`` — the only shape that reaches the wire
or the journal.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.adt import Query, UQADT, Update


def insert(v: Hashable) -> Update:
    """``I(v)``"""
    return Update("insert", (v,))


def delete(v: Hashable) -> Update:
    """``D(v)``"""
    return Update("delete", (v,))


def read(expected: frozenset | set) -> Query:
    """``R/s`` — a read observed to return ``s``."""
    return Query("read", (), frozenset(expected))


def contains(v: Hashable, expected: bool) -> Query:
    """``contains(v)/b``."""
    return Query("contains", (v,), bool(expected))


class SetSpec(UQADT):
    """Sequential specification of the set over an implicit countable support.

    ``T(s, I(v)) = s ∪ {v}``; ``T(s, D(v)) = s \\ {v}``; ``G(s, R) = s``.
    """

    name = "set"
    commutative_updates = False  # insert/delete of the same value conflict
    slotted_updates = True

    def initial_state(self) -> frozenset:
        return frozenset()

    def apply(self, state: frozenset, update: Update) -> frozenset:
        if update.name == "insert":
            (v,) = update.args
            return state | {v}
        if update.name == "delete":
            (v,) = update.args
            return state - {v}
        raise ValueError(f"unknown set update {update.name!r}")

    def slot(self, update: Update) -> Hashable:
        """``I(v)`` and ``D(v)`` both decide the membership of ``v``."""
        return update.args[0]

    def apply_batch(self, state: frozenset, updates) -> frozenset:
        """Single reverse pass: the last operation on each value decides
        its membership, untouched values keep their old membership — n
        Python steps plus at most two C-level passes over the state,
        instead of n frozenset copies."""
        decided: dict = {}
        for u in reversed(updates):
            (v,) = u.args
            if v not in decided:
                if u.name == "insert":
                    decided[v] = True
                elif u.name == "delete":
                    decided[v] = False
                else:
                    raise ValueError(f"unknown set update {u.name!r}")
        removed = [v for v, present in decided.items() if not present]
        if removed:
            state = state.difference(removed)
        return state.union(v for v, present in decided.items() if present)

    def thaw(self, state: frozenset) -> set:
        return set(state)

    def fold_into(self, work: set, updates: Sequence[Update]) -> set:
        add, discard = work.add, work.discard
        for u in updates:
            (v,) = u.args
            if u.name == "insert":
                add(v)
            elif u.name == "delete":
                discard(v)
            else:
                raise ValueError(f"unknown set update {u.name!r}")
        return work

    def freeze(self, work: set) -> frozenset:
        return frozenset(work)

    def probe_updates(self) -> Sequence[Update]:
        # insert("a") / delete("a") is the canonical order-sensitive pair
        # (Example 1): a probe set any commutativity checker must reject.
        return (insert("a"), delete("a"), insert("b"))

    def observe(self, state: frozenset | set, name: str, args: tuple[Hashable, ...] = ()) -> object:
        if name == "read":
            return frozenset(state)
        if name == "contains":
            (v,) = args
            return v in state
        raise ValueError(f"unknown set query {name!r}")

    def solve_state(self, constraints: Sequence[Query]) -> frozenset | None:
        """Exact solver: reads pin the state; contains pin membership."""
        pinned: frozenset | None = None
        must_have: set = set()
        must_lack: set = set()
        for q in constraints:
            if q.name == "read":
                value = q.output
                if not isinstance(value, (set, frozenset)):
                    return None
                value = frozenset(value)
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
