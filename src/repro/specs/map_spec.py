"""Key-value map (dictionary) as a UQ-ADT — the Dynamo-style object.

``put(k, v)`` and ``remove(k)`` update; ``get(k)``, ``keys`` and
``snapshot`` query.  ``get`` on an absent key returns :data:`ABSENT`.
Puts to *different* keys commute but puts/removes on the same key do not,
so the map is not a pure CRDT and genuinely needs the universal
construction for update consistency.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.adt import Query, UQADT, Update

#: Returned by ``get`` for a key not in the map.
ABSENT = "<absent>"


def put(k: Hashable, v: Any) -> Update:
    return Update("put", (k, v))


def remove(k: Hashable) -> Update:
    return Update("remove", (k,))


def get(k: Hashable, expected: Any) -> Query:
    return Query("get", (k,), expected)


def keys(expected: frozenset | set) -> Query:
    return Query("keys", (), frozenset(expected))


def snapshot(expected: dict) -> Query:
    return Query("snapshot", (), tuple(sorted(expected.items())))


class MapSpec(UQADT):
    """Dictionary object; state is a plain dict (copied on update).

    A replica's working state is a private dict that :meth:`fold_into`
    updates in place; :meth:`thaw` and :meth:`freeze` are ``dict`` copies.
    """

    name = "map"
    commutative_updates = False
    slotted_updates = True

    def initial_state(self) -> dict:
        return {}

    def apply(self, state: dict, update: Update) -> dict:
        if update.name == "put":
            k, v = update.args
            new = dict(state)
            new[k] = v
            return new
        if update.name == "remove":
            (k,) = update.args
            if k not in state:
                return state
            new = dict(state)
            del new[k]
            return new
        raise ValueError(f"unknown map update {update.name!r}")

    def slot(self, update: Update) -> Hashable:
        """``put(k, v)`` and ``remove(k)`` both decide key ``k``."""
        return update.args[0]

    def thaw(self, state: dict) -> dict:
        return dict(state)

    def fold_into(self, work: dict, updates: Sequence[Update]) -> dict:
        for u in updates:
            if u.name == "put":
                k, v = u.args
                work[k] = v
            elif u.name == "remove":
                (k,) = u.args
                work.pop(k, None)
            else:
                raise ValueError(f"unknown map update {u.name!r}")
        return work

    def freeze(self, work: dict) -> dict:
        return dict(work)

    def probe_updates(self) -> Sequence[Update]:
        # Two puts to the same key, and a put/remove pair: order decides
        # the surviving value, so commutativity checkers must reject both.
        return (put("k", 1), put("k", 2), remove("k"), put("j", 3))

    def observe(self, state: dict, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        if name == "get":
            (k,) = args
            return state.get(k, ABSENT)
        if name == "keys":
            return frozenset(state)
        if name == "snapshot":
            return tuple(sorted(state.items()))
        raise ValueError(f"unknown map query {name!r}")

    def solve_state(self, constraints: Sequence[Query]) -> dict | None:
        pinned: dict | None = None
        gets: dict[Hashable, Any] = {}
        key_sets: list[frozenset] = []
        for q in constraints:
            if q.name == "snapshot":
                value = dict(q.output)
                if pinned is not None and pinned != value:
                    return None
                pinned = value
            elif q.name == "get":
                (k,) = q.args
                if gets.get(k, q.output) != q.output:
                    return None
                gets[k] = q.output
            elif q.name == "keys":
                key_sets.append(frozenset(q.output))
            else:
                return None
        if len(set(key_sets)) > 1:
            return None
        required_keys = key_sets[0] if key_sets else None
        if pinned is None:
            pinned = {k: v for k, v in gets.items() if v != ABSENT}
            if required_keys is not None:
                # Sorted (stable key, persist.py idiom) so the solved dict's
                # insertion order is hash-seed independent: uqlint SIM103.
                for k in sorted(required_keys - set(pinned), key=repr):
                    if gets.get(k, None) == ABSENT:
                        return None
                    pinned[k] = None
        for k, v in gets.items():
            if self.observe(pinned, "get", (k,)) != v:
                return None
        if required_keys is not None and frozenset(pinned) != required_keys:
            return None
        return pinned
