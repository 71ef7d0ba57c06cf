"""Section VII-C: the five ways a replica answers a query from its log.

Algorithm 1 keeps every known update in ``(clock, pid)`` order and
"re-executes all past updates each time a new query is issued".  The
paper then names three cheaper ways to reach the same state: keep
intermediate states that "are re-computed only if very late messages
arrive", position a late update with undo/redo (Karsenty &
Beaudouin-Lafon), or — when all updates commute — apply each update as
soon as it is received.  Algorithm 2's argument, that an overwritten
value is never read again, gives one more for objects whose updates each
overwrite one slot: keep the folded state, and check a late update
against the later writes to its slot.  Each is a :class:`Replay` here; a
:class:`~repro.core.universal.UniversalReplica` owns exactly one, chosen at
construction, and calls it at five points:

* :meth:`Replay.inserted` — an entry landed at ``log[pos]``;
* :meth:`Replay.query` — a query's fold (charged to
  ``repro_replica_replayed_updates_total``);
* :meth:`Replay.peek` — the same state for introspection, uncharged and
  frozen;
* :meth:`Replay.collected` — stable-prefix GC folded the first ``cut``
  entries into a new base and dropped them from the log;
* :meth:`Replay.installed` — a base state replaced everything below the
  live log wholesale (a state transfer, or a journal's base record).

A replay reads the replica's log and writes only its own fields.  The
sorted log, the ids, the digest and the durable image are the replica's
and look the same whichever replay answers the queries.

==============  ========================================  =======================
name            query cost                                needs
==============  ========================================  =======================
``naive``       O(log): Algorithm 1, lines 14-17          —
``checkpoint``  O(new arrivals); a late one rolls back    —
``keyed``       O(new arrivals); a late one is checked    ``slotted_updates``
                against the later writes to its slot
``undo``        O(1); a late one undoes and redoes        ``invertible_updates``
``fold``        O(1); each arrival folds in on receipt    ``commutative_updates``
==============  ========================================  =======================
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.adt import UQADT
from repro.core.ckpt_tree import CheckpointTree
from repro.obs.metrics import MetricsRegistry

#: the log a replay reads: ``(clock, pid, update)`` entries in sorted order.
Log = Sequence[tuple[int, int, Any]]


class Replay:
    """The seam between a replica's sorted log and the state it queries.
    The defaults fit a replay that keeps ``_state`` current as entries
    arrive and hands it out as it is."""

    __slots__ = ("spec", "_state", "_replayed", "_snapshot")

    name = ""

    def __init__(self, spec: UQADT) -> None:
        self.spec = spec
        #: the one state this replay keeps (what it is, is per replay).
        self._state: Any = spec.initial_state()
        #: frozen copy of a working state, or None once the state moved.
        self._snapshot: Any = None

    def bind_metrics(self, registry: MetricsRegistry, pid: int) -> None:
        #: replay effort accounting (Section VII-C query replay cost).
        self._replayed = registry.counter(
            "repro_replica_replayed_updates_total",
            help="updates folded while answering queries (Section VII-C "
            "replay cost of Algorithm 1 and its optimizations)",
            label_names=("pid",),
        ).labels(pid=pid)

    def inserted(self, log: Log, pos: int) -> None:
        """``log[pos]`` is new; everything after it moved up one."""

    def query(self, log: Log) -> Any:
        """The state a query observes (lines 14-17).  It may be a working
        state this replay owns: observe it, never keep it."""
        return self._state

    def peek(self, log: Log) -> Any:
        """The state :meth:`query` would return, frozen, without charging
        the replay counter — introspection (``local_state``, convergence
        checks) must not inflate the per-query replay cost."""
        return self._state

    def collected(self, cut: int, base: Any) -> None:
        """The first ``cut`` entries were folded into ``base`` and have
        already been dropped from the log."""

    def installed(self, log: Log, base: Any) -> None:
        """``base`` now stands for everything below ``log``."""

    def _snapshot_of(self, work: Any) -> Any:
        """``spec.freeze(work)``, cached until the working state next
        moves (whoever moves it resets ``_snapshot``), so polling an idle
        replica copies nothing."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = self.spec.freeze(work)
        return snap


class NaiveReplay(Replay):
    """Algorithm 1 verbatim: every query folds the whole log, from the
    initial state (or the GC base, kept in ``_state``), in one
    :meth:`UQADT.apply_batch`."""

    __slots__ = ()

    name = "naive"

    def query(self, log: Log) -> Any:
        self._replayed.inc(len(log))
        return self.peek(log)

    def peek(self, log: Log) -> Any:
        return self.spec.apply_batch(self._state, [u for _, _, u in log])

    def collected(self, cut: int, base: Any) -> None:
        self._state = base

    def installed(self, log: Log, base: Any) -> None:
        self._state = base


class CheckpointReplay(Replay):
    """The cached replay prefix plus periodic checkpoints in a
    dyadically-thinned :class:`~repro.core.ckpt_tree.CheckpointTree`
    (O(log n) retained states, densest near the replay tip).

    A query folds only the updates that arrived since the last one
    (amortized O(new updates)), in place: the replay tip is a working
    state this replay owns (:meth:`~repro.core.adt.UQADT.thaw`), frozen
    only where a checkpoint is recorded, so a copying spec pays one state
    copy per checkpoint interval rather than one per query.  A *late*
    entry — one sorting before already-replayed updates — rolls back to
    the nearest surviving checkpoint with one bisect + slice delete, so
    the re-replay that follows is proportional to the entry's lateness,
    not the history length.
    """

    __slots__ = (
        "interval",
        "_owned",
        "_applied",
        "_ckpts",
        "_rollbacks",
        "_rollback_replayed",
    )

    name = "checkpoint"

    def __init__(self, spec: UQADT, interval: int) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        super().__init__(spec)
        self.interval = interval
        # ``_state`` is the replay tip: log[:applied] folded.  While
        # ``_owned`` it is a private working state folded in place;
        # otherwise it is shared (a checkpoint, the base) and the next
        # fold thaws it first.
        self._owned = False
        self._applied = 0
        self._ckpts = CheckpointTree(self._state)

    def bind_metrics(self, registry: MetricsRegistry, pid: int) -> None:
        super().bind_metrics(registry, pid)
        #: late-message rollbacks (bench metric).
        self._rollbacks = registry.counter(
            "repro_replica_rollbacks_total",
            help="checkpoint rollbacks forced by late messages (updates "
            "stamped before an already-replayed prefix)",
            label_names=("pid",),
        ).labels(pid=pid)
        #: how much cached work each rollback discarded — the updates
        #: between the surviving checkpoint and the old replay tip, which
        #: the next query must fold again.
        self._rollback_replayed = registry.counter(
            "repro_replica_rollback_replayed_updates_total",
            help="already-replayed updates invalidated by rollbacks (and "
            "hence re-applied by the next query)",
            label_names=("pid",),
        ).labels(pid=pid)

    def checkpoint_indices(self) -> list[int]:
        """Retained checkpoint positions (for tests and benchmarks)."""
        return self._ckpts.indices()

    def inserted(self, log: Log, pos: int) -> None:
        if pos < self._applied:
            # Late entry: the cached state replayed updates that sort
            # after it.  Roll back to the nearest checkpoint not past pos
            # (a checkpoint *at* pos is still valid: it folds exactly the
            # entries now sorting before the newcomer).  The checkpoint
            # becomes the shared tip: nothing is copied until a query
            # folds past it.
            self._rollbacks.inc()
            idx, state = self._ckpts.rollback(pos)
            self._rollback_replayed.inc(self._applied - idx)
            self._share_tip(idx, state)

    def _share_tip(self, applied: int, state: Any) -> None:
        """Point the replay tip at a frozen state it does not own (a
        checkpoint, the base): it is its own snapshot, and the next fold
        thaws it."""
        self._applied, self._state, self._owned = applied, state, False
        self._snapshot = state

    def query(self, log: Log) -> Any:
        state = self._state
        i = self._applied
        end = len(log)
        if i == end:
            return state
        spec = self.spec
        interval = self.interval
        record = self._ckpts.record
        if not self._owned:
            state, self._owned = spec.thaw(state), True
        # Every stride is one in-place fold and stops on a checkpoint
        # position; the tip is frozen only where a checkpoint is recorded.
        # The few updates a query at a busy node finds pending are one
        # fold and no copy.  A long suffix (restored log, caught-up
        # rejoiner) goes in strides that halve the distance to the tip
        # until two intervals remain — the stops are the O(log n)
        # checkpoints dyadic thinning would have kept of one per interval.
        start = i
        while i < end:
            ahead = end - i
            if ahead > 2 * interval:
                stop = i + ahead // 2
                stop -= stop % interval
            else:
                stop = min(end, i - i % interval + interval)
            state = spec.fold_into(state, [s[2] for s in log[i:stop]])
            i = stop
            snapshot = None
            if i % interval == 0:
                snapshot = spec.freeze(state)
                record(i, snapshot)
        self._replayed.inc(i - start)
        # A checkpoint frozen at the tip doubles as its snapshot.
        self._applied, self._state, self._snapshot = i, state, snapshot
        return state

    def peek(self, log: Log) -> Any:
        """Reuses the cached prefix but moves nothing.  The tip is handed
        out frozen (one copy per tip position, however often it is
        polled); the pending suffix — the whole log on a restored replica
        nobody has queried, which ``settle()`` polls — is one batch fold
        on top of that snapshot."""
        snapshot = self._snapshot_of(self._state)
        if self._applied == len(log):
            return snapshot
        return self.spec.apply_batch(
            snapshot, [s[2] for s in log[self._applied:]]
        )

    def collected(self, cut: int, base: Any) -> None:
        # The cached state (old base + log[:applied]) equals the new base
        # plus the surviving applied entries, so when the applied prefix
        # covers the cut only its index moves; otherwise the cache is a
        # strict sub-prefix of the new base and restarts from it.
        self._ckpts.shift_left(cut, base)
        if self._applied >= cut:
            self._applied -= cut
        else:
            self._share_tip(0, base)

    def installed(self, log: Log, base: Any) -> None:
        # Cached replay structures predate the new base; rebuild from it.
        self._ckpts.reset(base)
        self._share_tip(0, base)


class KeyedReplay(Replay):
    """Algorithm 2's argument — "an overwritten value can never be read
    again" — for any spec whose updates each overwrite one slot
    (:meth:`~repro.core.adt.UQADT.slot`): the set's ``insert(v)`` and
    ``delete(v)`` write slot ``v``, the map's ``put``/``remove`` write
    their key.

    A query folds the updates that arrived since the last one into a
    working state this replay owns, as the checkpoint replay does, but
    keeps no checkpoints: a *late* entry never needs a rollback.  Slots
    are independent and a write's value does not depend on the state, so
    a late entry is either overwritten by an already-folded write to its
    slot — then the folded state is already right and nothing is folded —
    or no folded entry after it touches its slot, and folding it on top
    gives the state its sorted position would.  Deciding which scans the
    folded entries that now sort after it: never more than the checkpoint
    replay's rollback would fold again, and no state is copied.  An
    entry at or after the applied mark (every in-order append, every
    journal entry a boot replays) costs nothing until the next query.
    """

    __slots__ = ("_applied",)

    name = "keyed"

    def __init__(self, spec: UQADT) -> None:
        if not spec.slotted_updates:
            raise ValueError(
                f"{spec.name!r} does not declare slotted_updates; the keyed "
                f"replay needs updates that each overwrite one slot"
            )
        super().__init__(spec)
        # ``_state`` is log[:applied] folded, a working state folded in place.
        self._state = spec.thaw(self._state)
        self._applied = 0

    def inserted(self, log: Log, pos: int) -> None:
        applied = self._applied
        if pos >= applied:
            return  # pending: the next query folds it in order
        slot = self.spec.slot
        update = log[pos][2]
        key = slot(update)
        # the folded entries that sort after the newcomer: log[pos+1:applied+1]
        for i in range(pos + 1, applied + 1):
            if slot(log[i][2]) == key:
                break  # shadowed: a later write to its slot is folded
        else:
            self._state = self.spec.fold_into(self._state, (update,))
            self._snapshot = None
        self._applied = applied + 1

    def query(self, log: Log) -> Any:
        i, end = self._applied, len(log)
        if i < end:
            self._state = self.spec.fold_into(
                self._state, [s[2] for s in log[i:]]
            )
            self._replayed.inc(end - i)
            self._applied, self._snapshot = end, None
        return self._state

    def peek(self, log: Log) -> Any:
        """The folded state, frozen once per position, plus the pending
        suffix in one batch fold."""
        snapshot = self._snapshot_of(self._state)
        if self._applied == len(log):
            return snapshot
        return self.spec.apply_batch(
            snapshot, [s[2] for s in log[self._applied:]]
        )

    def collected(self, cut: int, base: Any) -> None:
        # As for the checkpoint replay: a folded prefix covering the cut
        # only moves its index; otherwise restart from the new base.
        if self._applied >= cut:
            self._applied -= cut
        else:
            self._restart(base)

    def installed(self, log: Log, base: Any) -> None:
        self._restart(base)

    def _restart(self, base: Any) -> None:
        """Fold from ``base`` (frozen, so its own snapshot)."""
        self._state, self._applied = self.spec.thaw(base), 0
        self._snapshot = base


class UndoReplay(Replay):
    """Karsenty–Beaudouin-Lafon undo/redo: the fully-applied state is
    maintained at all times, so a query costs nothing.  An entry landing
    before already-applied ones *undoes* the displaced suffix (newest
    first), applies the newcomer and *redoes* the suffix — O(displacement)
    work instead of O(log) replay.  Needs ``T(T(s, u), u⁻¹) = s``
    (``spec.invertible_updates``, e.g. the counter and the append-only
    log)."""

    __slots__ = ("undone_redone",)

    name = "undo"

    def __init__(self, spec: UQADT) -> None:
        if not spec.invertible_updates:
            raise ValueError(
                f"{spec.name!r} updates are not invertible; the undo "
                f"optimization requires T(T(s,u),u⁻¹)=s for all s"
            )
        super().__init__(spec)
        #: total undo + redo steps (bench metric).
        self.undone_redone = 0

    def inserted(self, log: Log, pos: int) -> None:
        displaced = log[pos + 1:]
        spec = self.spec
        state = self._state
        for _, _, u in reversed(displaced):
            state = spec.unapply(state, u)
        state = spec.apply(state, log[pos][2])
        for _, _, u in displaced:
            state = spec.apply(state, u)
        self.undone_redone += 2 * len(displaced) + 1
        self._state = state

    def installed(self, log: Log, base: Any) -> None:
        self._state = self.spec.apply_batch(base, [u for _, _, u in log])


class ArrivalFold(Replay):
    """"If all the update operations commute ... a naive implementation,
    that applies the updates on a replica as soon as the notification is
    received, achieves update consistency": the arrival-order fold of every
    known update equals the sorted-log fold, so a query reads it in O(1).
    The fold is a working state this replay owns (``spec.thaw``); each
    arrival folds into it in place."""

    __slots__ = ()

    name = "fold"

    def __init__(self, spec: UQADT) -> None:
        if not spec.commutative_updates:
            raise ValueError(
                f"{spec.name!r} does not declare commutative_updates; the "
                f"arrival-order fold would diverge on it — run uqlint "
                f"UQ006 if the spec should be declaring commutativity"
            )
        super().__init__(spec)
        self._state = spec.thaw(self._state)

    def inserted(self, log: Log, pos: int) -> None:
        self._state = self.spec.fold_into(self._state, (log[pos][2],))
        self._snapshot = None

    def peek(self, log: Log) -> Any:
        return self._snapshot_of(self._state)

    def installed(self, log: Log, base: Any) -> None:
        # The handed-off base replaces the fold's view of the collected
        # prefix wholesale; refold the surviving live entries on top.
        self._state = self.spec.fold_into(
            self.spec.thaw(base), [u for _, _, u in log]
        )
        self._snapshot = None


REPLAYS: dict[str, type[Replay]] = {
    cls.name: cls
    for cls in (NaiveReplay, CheckpointReplay, KeyedReplay, UndoReplay, ArrivalFold)
}


def make_replay(
    spec: UQADT,
    name: str | None,
    *,
    default: str = "naive",
    checkpoint_interval: int | None = None,
) -> Replay:
    """The replay called ``name`` for ``spec``.  ``None`` picks the
    arrival-order fold on a spec declaring ``commutative_updates`` and
    ``default`` otherwise.  ``checkpoint_interval`` is a setting of the
    checkpoint replay only (default 64); any other replay refuses it."""
    if name is None:
        name = "fold" if spec.commutative_updates else default
    cls = REPLAYS.get(name)
    if cls is None:
        raise ValueError(f"unknown replay {name!r}; pick from {sorted(REPLAYS)}")
    if cls is CheckpointReplay:
        interval = 64 if checkpoint_interval is None else checkpoint_interval
        return CheckpointReplay(spec, interval)
    if checkpoint_interval is not None:
        raise ValueError(
            f"checkpoint_interval is a setting of the checkpoint replay; "
            f"the {name!r} replay keeps no checkpoints"
        )
    return cls(spec)
