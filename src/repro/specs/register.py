"""Registers and the shared memory of Algorithm 2.

:class:`RegisterSpec` is a single read/write register (the object of the
Attiya–Welch lower bounds cited in the introduction).  :class:`MemorySpec`
is the object implemented by Algorithm 2: a set ``X`` of registers holding
values from ``V``, with ``write(x, v)`` updates and ``read(x)`` queries;
``read`` returns the last written value or the initial value ``v0``.

Memory states are immutable mappings (plain dicts treated as immutable —
``apply`` copies).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.core.adt import Query, UQADT, Update, fresh_state


def write(value: Any) -> Update:
    """Single-register ``write(v)``."""
    return Update("write", (value,))


def read(expected: Any) -> Query:
    """Single-register ``read/v``."""
    return Query("read", (), expected)


def mem_write(register: Hashable, value: Any) -> Update:
    """Memory ``write(x, v)``."""
    return Update("write", (register, value))


def mem_read(register: Hashable, expected: Any) -> Query:
    """Memory ``read(x)/v``."""
    return Query("read", (register,), expected)


class RegisterSpec(UQADT):
    """A single read/write register initialized to ``initial``."""

    name = "register"
    commutative_updates = False  # writes overwrite: order matters
    slotted_updates = True

    def __init__(self, initial: Any = None) -> None:
        self._initial = initial

    def initial_state(self) -> Any:
        # Fresh-or-immutable s0 (Def. 1, enforced by uqlint UQ005): a
        # mutable ``initial`` must not be shared across replays.
        return fresh_state(self._initial)

    def apply(self, state: Any, update: Update) -> Any:
        if update.name == "write":
            (v,) = update.args
            return v
        raise ValueError(f"unknown register update {update.name!r}")

    def slot(self, update: Update) -> Hashable:
        """One register, one slot: every write overwrites it."""
        return None

    def observe(self, state: Any, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        if name == "read":
            return state
        raise ValueError(f"unknown register query {name!r}")

    def solve_state(self, constraints: Sequence[Query]) -> Any | None:
        value = _NOTHING
        for q in constraints:
            if q.name != "read":
                return None
            if value is _NOTHING:
                value = q.output
            elif value != q.output:
                return None
        return self._initial if value is _NOTHING else value


class MemorySpec(UQADT):
    """The shared memory ``mem(X, V, v0)`` of Algorithm 2.

    The register space ``X`` is implicit (any hashable); unwritten registers
    read as ``initial``.
    """

    name = "memory"
    commutative_updates = False
    slotted_updates = True

    def __init__(self, initial: Any = None) -> None:
        self._initial = initial

    @property
    def initial_value(self) -> Any:
        return self._initial

    def initial_state(self) -> dict:
        return {}

    def apply(self, state: dict, update: Update) -> dict:
        if update.name == "write":
            x, v = update.args
            new = dict(state)
            new[x] = v
            return new
        raise ValueError(f"unknown memory update {update.name!r}")

    def slot(self, update: Update) -> Hashable:
        """``write(x, v)`` overwrites register ``x`` (Algorithm 2's slot)."""
        return update.args[0]

    def apply_batch(self, state: dict, updates) -> dict:
        """One dict copy plus n assignments (last write per register wins
        within the batch automatically) instead of n dict copies."""
        new = dict(state)
        for u in updates:
            if u.name != "write":
                raise ValueError(f"unknown memory update {u.name!r}")
            x, v = u.args
            new[x] = v
        return new

    def thaw(self, state: dict) -> dict:
        return dict(state)

    def fold_into(self, work: dict, updates: Sequence[Update]) -> dict:
        for u in updates:
            if u.name != "write":
                raise ValueError(f"unknown memory update {u.name!r}")
            x, v = u.args
            work[x] = v
        return work

    def freeze(self, work: dict) -> dict:
        return dict(work)

    def observe(self, state: dict, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        if name == "read":
            (x,) = args
            return state.get(x, self._initial)
        if name == "snapshot":
            return dict(state)
        raise ValueError(f"unknown memory query {name!r}")

    def solve_state(self, constraints: Sequence[Query]) -> dict | None:
        pinned: dict = {}
        snapshots: list[dict] = []
        for q in constraints:
            if q.name == "read":
                (x,) = q.args
                if pinned.get(x, q.output) != q.output:
                    return None
                pinned[x] = q.output
            elif q.name == "snapshot":
                snap = q.output
                if not isinstance(snap, dict):
                    return None
                snapshots.append(snap)
                for x, v in snap.items():
                    if pinned.get(x, v) != v:
                        return None
                    pinned[x] = v
            else:
                return None
        # Registers pinned to the initial value need no explicit entry.
        state = {x: v for x, v in pinned.items() if v != self._initial}
        # A snapshot asserts the *whole* state: any register pinned to a
        # non-initial value by another constraint must appear in it.
        for snap in snapshots:
            canonical_snap = {x: v for x, v in snap.items() if v != self._initial}
            if canonical_snap != state:
                return None
        return state


_NOTHING = object()
