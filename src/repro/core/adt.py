"""Update-query abstract data types (Definition 1 of the paper).

A UQ-ADT is a transition system ``(U, Qi, Qo, S, s0, T, G)``:

* ``U`` — update operations: side-effecting, no return value;
* ``Qi × Qo`` — query operations ``qi/qo`` (input ``qi`` returns ``qo``);
* ``T : S × U -> S`` — transition function;
* ``G : S × Qi -> Qo`` — output function.

A sequential history (a word over ``U ∪ Q``) is *recognized* when replaying
it from ``s0`` makes every query output match ``G`` of the current state.
``L(O)`` — the recognized language — is the sequential specification that
every consistency criterion in :mod:`repro.core.criteria` refers to.

Concrete data types live in :mod:`repro.specs`; they subclass
:class:`UQADT` and implement ``apply`` (= ``T``) and ``observe`` (= ``G``).
Operations themselves are *symbolic* (:class:`Update`, :class:`Query`
dataclasses) so the same history object can be checked against different
specifications and shipped through the simulator as plain messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence


@dataclass(frozen=True, slots=True)
class Update:
    """A symbolic update operation ``name(*args)``.

    Updates have a side effect and no return value (they label transitions
    of the UQ-ADT).  Equality is structural, so the same update issued twice
    compares equal — histories distinguish the two *events* carrying it.
    """

    name: str
    args: tuple[Hashable, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True, slots=True)
class Query:
    """A symbolic query ``qi/qo``: input ``name(*args)`` observed to return
    ``output``.

    In the paper a query operation is the *pair* (input, output); a history
    records what each read actually returned, and the criteria decide
    whether those returns are explainable.
    """

    name: str
    args: tuple[Hashable, ...] = ()
    output: Any = None

    @property
    def input_part(self) -> tuple[str, tuple[Hashable, ...]]:
        """The ``qi`` component (used to evaluate ``G`` against a state)."""
        return (self.name, self.args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})/{self.output!r}"


Operation = Update | Query

#: Sentinel distinguishing "no state supplied" from a legitimate ``None`` state.
_NO_STATE = object()


class UQADT:
    """Base class for sequential specifications.

    Subclasses provide:

    * :attr:`name` — human-readable type name;
    * :meth:`initial_state` — ``s0`` (must be a fresh or immutable value);
    * :meth:`apply` — the transition function ``T`` (must *not* mutate the
      input state; return a new state);
    * :meth:`observe` — the output function ``G``;
    * optionally :meth:`solve_state` — given query constraints, produce a
      state satisfying all of them (used by the eventual-consistency
      checkers, where the consistent state is *any* element of ``S``, not
      necessarily reachable);
    * optionally :meth:`canonical` — hashable canonical form of a state
      (defaults to the state itself), used to compare states for equality
      across replicas;
    * optionally the three *working-state* hooks the replay-caching
      replicas fold through (Section VII-C's kept intermediate state):
      :meth:`thaw` returns a private working copy of a state,
      :meth:`fold_into` folds updates into a working copy — the one
      method allowed to mutate its argument — and :meth:`freeze` returns
      an immutable snapshot that later folds into the working copy cannot
      change.  The defaults (identity, ``apply_batch``, identity) suit an
      immutable state with cheap transitions; a spec whose ``apply``
      copies the whole state (a set, a map) overrides all three so a
      replica pays one copy per snapshot instead of one per fold.
      ``freeze(fold_into(thaw(s), us)) == apply_batch(s, us)`` and ``s``
      is left unchanged (property-tested over every spec).

    * optionally :meth:`slot` — on a spec declaring
      :attr:`slotted_updates`, the one slot of the state an update
      overwrites.

    :meth:`apply`, :meth:`apply_batch` and :meth:`observe` stay pure.
    :meth:`observe` must accept a working state as well as a frozen one,
    answer both alike, and never return an alias of a working state (a
    ``read`` of a working set returns a snapshot of it, i.e. one copy).
    """

    name: str = "uq-adt"
    #: True when every pair of updates commutes (pure CRDT in the sense of
    #: Section VII-C); makes the arrival-order fold replica's default replay.
    commutative_updates: bool = False
    #: True when every update ``u`` has an inverse with
    #: ``T(T(s, u), u⁻¹) = s`` for *all* states — the precondition of the
    #: Karsenty–Beaudouin-Lafon undo replay (:mod:`repro.core.replay`).
    #: Implementations must then provide :meth:`unapply`.
    invertible_updates: bool = False
    #: True when every update overwrites one slot of the state: ``T(s, u)``
    #: differs from ``s`` only at ``slot(u)``, and the value there does not
    #: depend on ``s`` — the precondition of the keyed replay
    #: (:mod:`repro.core.replay`).  Implementations must then provide
    #: :meth:`slot`.
    slotted_updates: bool = False

    # -- the transition system -------------------------------------------------

    def initial_state(self) -> Any:
        """The initial state ``s0`` (a fresh or immutable value)."""
        raise NotImplementedError

    def apply(self, state: Any, update: Update) -> Any:
        """Transition function ``T``.  Must be pure (no mutation)."""
        raise NotImplementedError

    def observe(self, state: Any, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        """Output function ``G``."""
        raise NotImplementedError

    def unapply(self, state: Any, update: Update) -> Any:
        """Inverse transition: ``unapply(apply(s, u), u) == s`` for all s.

        Only meaningful when :attr:`invertible_updates` is True; the undo
        optimization uses it to re-position late updates without a full
        replay (Section VII-C's discussion of [Karsenty & Beaudouin-Lafon]).
        """
        raise NotImplementedError(f"{self.name} updates are not invertible")

    def slot(self, update: Update) -> Hashable:
        """The one slot ``update`` overwrites (the set's ``insert(v)`` and
        ``delete(v)`` write slot ``v``; a register has one slot).

        Only meaningful when :attr:`slotted_updates` is True.  Two updates
        to different slots then commute, and an update is shadowed by any
        later one to its slot: the keyed replay folds a late update only
        when no folded update after it writes its slot.  Algorithm 2
        applies the same argument to the shared memory
        (property-tested per declaring spec through :meth:`observe`).
        """
        raise NotImplementedError(f"{self.name} updates overwrite no slot")

    def apply_batch(self, state: Any, updates: Sequence[Update]) -> Any:
        """Fold a whole update sequence into the state.

        Semantically always equal to ``functools.reduce(self.apply, ...)``
        (property-tested); the point is performance: specs override it
        with vectorized or single-pass implementations (numpy delta sums
        for the counter, one concatenation for the log, a reverse
        membership pass for the set), which the replay-based replicas use
        for their hot loop.  "Vectorizing for loops" and "in-place-style
        batch work" are the standard scientific-Python levers — measured
        in ``benchmarks/bench_ablation_batch.py``.
        """
        for update in updates:
            state = self.apply(state, update)
        return state

    # -- working states (the replica-owned replay tip) ---------------------------

    def thaw(self, state: Any) -> Any:
        """A private working copy of ``state`` for :meth:`fold_into`.
        Must not alias anything :meth:`fold_into` would mutate.  Default:
        the state itself (states are immutable, folds return new ones)."""
        return state

    def fold_into(self, work: Any, updates: Sequence[Update]) -> Any:
        """Fold ``updates`` into the working state ``work`` and return it.
        May mutate ``work`` (and only ``work``: never a state it was
        thawed from or a snapshot frozen from it).  Default:
        :meth:`apply_batch`."""
        return self.apply_batch(work, updates)

    def freeze(self, work: Any) -> Any:
        """An immutable snapshot of the working state ``work`` that later
        :meth:`fold_into` calls cannot change; a state :meth:`apply` and
        the wire codecs accept.  Default: ``work`` itself."""
        return work

    def probe_updates(self) -> Sequence[Update]:
        """A small generator set of updates exercising the spec's algebra.

        Used by tooling that checks *declared* properties against observed
        behaviour — most importantly ``uqlint``'s UQ006 rule, which tries
        every pair from this set in both orders to catch a spec declaring
        :attr:`commutative_updates` whose ``apply`` is order-sensitive.
        The set should cover the interesting conflicts (an insert and a
        delete of the same element, two writes to the same key...); a pair
        of probes commuting is evidence, not proof.  Specs declaring
        commutativity without providing probes are flagged as unverifiable.
        """
        return ()

    # -- derived machinery -----------------------------------------------------

    def evaluate(self, state: Any, query: Query) -> Any:
        """``G`` applied to a symbolic query's input part."""
        return self.observe(state, query.name, query.args)

    def satisfies(self, state: Any, query: Query) -> bool:
        """True iff ``G(state, qi) == qo`` for the recorded pair ``qi/qo``."""
        return self.evaluate(state, query) == query.output

    def replay(self, operations: Iterable[Operation], state: Any = _NO_STATE) -> Any:
        """Final state after applying the updates of ``operations`` in order.

        Queries in the sequence are ignored (they do not change the state);
        use :meth:`recognizes` to additionally validate their outputs.
        Passing ``state`` replays from that state instead of ``s0`` (``None``
        is a legal state for e.g. registers, hence the private sentinel).
        """
        s = self.initial_state() if state is _NO_STATE else state
        for op in operations:
            if isinstance(op, Update):
                s = self.apply(s, op)
        return s

    def recognizes(self, word: Sequence[Operation]) -> bool:
        """Membership in ``L(O)``: replay ``word`` checking every query."""
        state = self.initial_state()
        for op in word:
            if isinstance(op, Update):
                state = self.apply(state, op)
            elif isinstance(op, Query):
                if not self.satisfies(state, op):
                    return False
            else:  # pragma: no cover - defensive
                raise TypeError(f"not an operation: {op!r}")
        return True

    def first_violation(self, word: Sequence[Operation]) -> int | None:
        """Index of the first query whose output contradicts the replay,
        or ``None`` if the word is recognized (diagnostics helper)."""
        state = self.initial_state()
        for i, op in enumerate(word):
            if isinstance(op, Update):
                state = self.apply(state, op)
            elif not self.satisfies(state, op):
                return i
        return None

    # -- hooks for the criteria checkers ----------------------------------------

    def solve_state(self, constraints: Sequence[Query]) -> Any | None:
        """A state satisfying every ``qi/qo`` constraint, or ``None``.

        The eventual-consistency criteria quantify existentially over *all*
        states of ``S`` (not only reachable ones).  Concrete specs override
        this with an exact solver; the default conservatively returns
        ``None`` when constraints are non-empty and cannot be discharged,
        which makes the checkers *sound but incomplete* for exotic specs.
        """
        if not constraints:
            return self.initial_state()
        state = self.initial_state()
        if all(self.satisfies(state, q) for q in constraints):
            return state
        return None

    def canonical(self, state: Any) -> Hashable:
        """Hashable canonical form for state comparison across replicas."""
        return _canonical(state)

    def states_equal(self, a: Any, b: Any) -> bool:
        """Structural state equality via :meth:`canonical`."""
        return self.canonical(a) == self.canonical(b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def fresh_state(value: Any) -> Any:
    """A structurally equal value sharing no mutable containers with ``value``.

    ``initial_state`` must return a *fresh or immutable* ``s0`` (Def. 1):
    a spec configured with a mutable initial value (``RegisterSpec([])``)
    would otherwise hand the same object to every replay, and one in-place
    change would corrupt all replicas at once.  Immutable values are
    returned as-is (no copying cost on the common path).
    """
    if isinstance(value, list):
        return [fresh_state(v) for v in value]
    if isinstance(value, dict):
        return {k: fresh_state(v) for k, v in value.items()}
    if isinstance(value, set):
        return {fresh_state(v) for v in value}
    if isinstance(value, bytearray):
        return bytearray(value)
    if isinstance(value, tuple):
        return tuple(fresh_state(v) for v in value)
    return value


def _canonical(state: Any) -> Hashable:
    """Best-effort hashable canonicalization of common state shapes."""
    if isinstance(state, (set, frozenset)):
        return frozenset(_canonical(x) for x in state)
    if isinstance(state, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in state.items()))
    if isinstance(state, list):
        return tuple(_canonical(x) for x in state)
    if isinstance(state, tuple):
        return tuple(_canonical(x) for x in state)
    return state
