"""Section VII-C optimization: cached intermediate states + stable-prefix GC.

Algorithm 1 replays the whole update log on every query.  The paper notes
that "in an effective implementation, a process can keep intermediate
states [which] are re-computed only if very late messages arrive" and that
"after some time old messages can be garbage collected".  Both ideas are
implemented here.

:class:`CheckpointedReplica`
    Keeps the state of an already-replayed prefix plus periodic
    checkpoints in a dyadically-thinned
    :class:`~repro.core.ckpt_tree.CheckpointTree` (O(log n) retained
    states, densest near the replay tip).  A query only folds in the
    updates that arrived since the last one (amortized O(new updates)),
    in place: the replay tip is a working state the replica owns
    (:meth:`~repro.core.adt.UQADT.thaw`), frozen only where a checkpoint
    is recorded, so a copying spec pays one state copy per checkpoint
    interval rather than one per query.
    A *late* message — one whose timestamp sorts before already-replayed
    updates — rolls back to the nearest surviving checkpoint with one
    bisect + slice delete, so the re-replay that follows is proportional
    to the message's lateness, not the history length.

:class:`GarbageCollectedReplica`
    Additionally tracks, per peer, the highest Lamport clock heard from it.
    An update stamped below every peer's heard-clock can never be preceded
    by a yet-unknown update (Lamport clocks are monotone along messages),
    so the prefix of such updates is *stable*: it is folded into a base
    state and dropped from the log.  Idle processes keep the frontier
    moving with heartbeats (clock-only messages).

    Stability relies on per-sender delivery order: run it over FIFO
    channels (``Cluster(..., fifo=True)``).  With arbitrary reordering an
    in-flight message could be stamped below an already-heard clock and
    sort under the collected prefix — the replica detects that and raises
    :class:`StabilityViolation` rather than silently diverging.

Both classes inherit the commutative fast path from
:class:`~repro.core.universal.UniversalReplica`: on a spec declaring
``commutative_updates`` queries are answered from the arrival-order fold
and the checkpoint machinery idles (the sorted log, checkpoint floor
shifting and state transfers keep working, so GC composes with the fast
path).  Pass ``fast_path=False`` to exercise the replay machinery on a
commutative spec.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Hashable, Sequence

from repro.core.adt import UQADT
from repro.core.ckpt_tree import CheckpointTree
from repro.core.sync import StateTransferRequired, SyncDigest
from repro.core.universal import Stamped, UniversalReplica
from repro.obs.metrics import MetricsRegistry
from repro.proto.wire import install_state_transfer, state_transfer


class CheckpointedReplica(UniversalReplica):
    """Algorithm 1 with cached replay prefix and a checkpoint tree."""

    __slots__ = (
        "checkpoint_interval",
        "_state",
        "_owned",
        "_applied",
        "_ckpts",
        "_rollbacks",
        "_rollback_replayed",
    )

    def __init__(
        self,
        pid: int,
        n: int,
        spec: UQADT,
        *,
        checkpoint_interval: int = 64,
        track_witness: bool = True,
        sync_page_size: int = 64,
        fast_path: bool | None = None,
    ) -> None:
        super().__init__(
            pid, n, spec,
            track_witness=track_witness,
            sync_page_size=sync_page_size,
            fast_path=fast_path,
        )
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.checkpoint_interval = checkpoint_interval
        #: the replay tip: updates[:applied] folded into _state.  While
        #: ``_owned`` it is a private working state folded in place;
        #: otherwise it is shared (a checkpoint, the base) and the next
        #: fold thaws it first.
        self._state: Any = spec.initial_state()
        self._owned = False
        self._applied = 0
        self._ckpts = CheckpointTree(self._state)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        #: late-message rollbacks (bench metric).
        self._rollbacks = registry.counter(
            "repro_replica_rollbacks_total",
            help="checkpoint rollbacks forced by late messages (updates "
            "stamped before an already-replayed prefix)",
            label_names=("pid",),
        ).labels(pid=self.pid)
        #: how much cached work each rollback discarded — the updates
        #: between the surviving checkpoint and the old replay tip, which
        #: the next query must fold again.
        self._rollback_replayed = registry.counter(
            "repro_replica_rollback_replayed_updates_total",
            help="already-replayed updates invalidated by rollbacks (and "
            "hence re-applied by the next query)",
            label_names=("pid",),
        ).labels(pid=self.pid)

    @property
    def rollbacks(self) -> int:
        """Deprecated: reads ``repro_replica_rollbacks_total``."""
        return int(self._rollbacks.value)

    @property
    def rollback_replayed(self) -> int:
        """Reads ``repro_replica_rollback_replayed_updates_total``."""
        return int(self._rollback_replayed.value)

    def checkpoint_indices(self) -> list[int]:
        """Retained checkpoint positions (for tests and benchmarks)."""
        return self._ckpts.indices()

    # The base state replay starts from (overridden by the GC subclass).
    def _base_state(self) -> Any:
        return self.spec.initial_state()

    def _after_insert(self, pos: int, stamped: Stamped) -> None:
        if self._fast_path:
            # Arrival-order fold answers queries; the replay cache idles.
            super()._after_insert(pos, stamped)
        elif pos < self._applied:
            # Late message: the cached state replayed updates that sort
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

    def _replay_state(self) -> Any:
        state = self._state
        i = self._applied
        end = len(self.updates)
        if i == end:
            return state
        log = self.updates
        spec = self.spec
        interval = self.checkpoint_interval
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

    def _peek_state(self) -> Any:
        """Introspection fold: reuses the cached prefix but moves nothing
        and charges nothing (see the base-class docstring).  The tip is
        handed out frozen (one copy per tip position, however often it is
        polled); the pending suffix — the whole log on a restored replica
        nobody has queried, which ``settle()`` polls — is one batch fold
        on top of that snapshot."""
        if self._fast_path:
            return super()._peek_state()
        snapshot = self._snapshot_of(self._state)
        if self._applied == len(self.updates):
            return snapshot
        return self.spec.apply_batch(
            snapshot, [s[2] for s in self.updates[self._applied:]]
        )


class StabilityViolation(RuntimeError):
    """A message arrived below the garbage-collected frontier (the network
    reordered per-sender traffic; stable-prefix GC needs FIFO channels)."""


class GarbageCollectedReplica(CheckpointedReplica):
    """Checkpointing plus stable-prefix garbage collection.

    The wire format grows a heartbeat variant: updates travel as
    ``(clock, pid, update)`` like the base class; heartbeats as
    ``("hb", clock, pid)``.  GC folds the stable prefix into the base
    state; :attr:`collected` counts discarded log entries.
    """

    __slots__ = (
        "gc_interval",
        "heard",
        "_base",
        "_since_gc",
        "_gc_frontier",
        "_gc_clock_floor",
        "_own_suspect_below",
        "_collected",
        "_state_transfers",
        "_state_installs",
    )

    HEARTBEAT = "hb"

    def __init__(
        self,
        pid: int,
        n: int,
        spec: UQADT,
        *,
        checkpoint_interval: int = 64,
        gc_interval: int = 128,
        track_witness: bool = False,
        relay: bool = False,
        sync_page_size: int = 64,
        fast_path: bool | None = None,
    ) -> None:
        if relay:
            raise ValueError(
                "stable-prefix GC cannot run with epidemic relay: a "
                "relayed duplicate stamped under the collected frontier is "
                "indistinguishable from a stability violation"
            )
        super().__init__(
            pid, n, spec,
            checkpoint_interval=checkpoint_interval,
            track_witness=track_witness,
            sync_page_size=sync_page_size,
            fast_path=fast_path,
        )
        if gc_interval <= 0:
            raise ValueError("gc interval must be positive")
        self.gc_interval = gc_interval
        #: highest clock heard from each peer (own entry tracks own clock).
        self.heard: list[int] = [0] * n
        self._base: Any = spec.initial_state()
        self._since_gc = 0
        #: largest (clock, pid) folded into the base state.
        self._gc_frontier: tuple[int, int] | None = None
        #: completeness floor of the base state: every update (from any
        #: author) with clock <= this is folded into ``_base``.  Unlike
        #: the frontier it advances even when a collection folds nothing
        #: (min(heard) grew past an empty stretch), and it is what lets
        #: ``_known`` stay pruned: ids at or below the floor are known
        #: implicitly.
        self._gc_clock_floor = 0
        #: crash-recovery honesty guard: after a truncated restore this
        #: replica may have *lost its own updates* with clocks at or below
        #: the recorded value, so its own ``heard`` column (a completeness
        #: claim about its own authorship) must not advance past the
        #: restored log until a state transfer certifies a floor covering
        #: the gap.  0 = no suspicion.
        self._own_suspect_below = 0

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        #: log entries folded away by stable-prefix GC.
        self._collected = registry.counter(
            "repro_replica_collected_entries_total",
            help="update-log entries garbage-collected into the base state "
            "(the stable prefix of Section VII-C)",
            label_names=("pid",),
        ).labels(pid=self.pid)
        #: anti-entropy v2 state transfer accounting.
        self._state_transfers = registry.counter(
            "repro_sync_state_transfers_total",
            help="base-state handoffs sent to requesters whose coverage "
            "ended below this replica's GC floor",
            label_names=("pid",),
        ).labels(pid=self.pid)
        self._state_installs = registry.counter(
            "repro_sync_state_installs_total",
            help="transferred base states installed (the requester side "
            "of a state transfer)",
            label_names=("pid",),
        ).labels(pid=self.pid)

    @property
    def collected(self) -> int:
        """Deprecated: reads ``repro_replica_collected_entries_total``."""
        return int(self._collected.value)

    def _base_state(self) -> Any:
        return self._base

    def on_update(self, update) -> Sequence[Any]:
        out = super().on_update(update)
        self._advance_own_heard()
        self._maybe_gc()
        return out

    def on_message(self, src: int, payload) -> Sequence[Any]:
        if isinstance(payload, tuple) and payload and payload[0] == self.HEARTBEAT:
            _, cl, j = payload
            self.clock.merge(cl)
            if src == j:
                # Only the author's own channel carries the FIFO
                # completeness claim; a forwarded heartbeat would assert
                # another channel's delivery order.
                self.heard[j] = max(self.heard[j], cl)
            self._maybe_gc()
            return ()
        if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
            # Other control payloads (the anti-entropy handshake): the
            # base class dispatches them; sync-resp entries go through
            # _ingest_synced, which tolerates sub-floor duplicates and
            # never advances ``heard`` (a paged update arrives on the
            # responder's channel, not its author's, so it carries no
            # FIFO completeness claim).
            return super().on_message(src, payload)
        cl, j, _u = payload
        if cl <= self._gc_clock_floor:
            raise StabilityViolation(
                f"update stamped {(cl, j)} arrived under the collected "
                f"floor {self._gc_clock_floor}; use FIFO channels with GC"
            )
        if src == j:
            # As with heartbeats: the claim "every j-update with a smaller
            # clock has been delivered" is only sound on j's own FIFO
            # channel.  Before v2, a sync-resp entry relayed by a peer
            # advanced ``heard`` too, silently over-advancing the frontier.
            self.heard[j] = max(self.heard[j], cl)
        out = super().on_message(src, payload)
        self._maybe_gc()
        return out

    def heartbeat(self) -> tuple:
        """A clock-only payload keeping the stability frontier moving.

        Callers broadcast it via the cluster's network; it carries no
        update, so it does not appear in the distributed history.
        """
        self._advance_own_heard()
        return (self.HEARTBEAT, self.clock.value, self.pid)

    def _advance_own_heard(self) -> None:
        """Advance the own ``heard`` column to the clock — unless a
        truncated restore left this replica unsure it still has all of
        its own pre-crash updates (see ``_own_suspect_below``)."""
        if not self._own_suspect_below:
            self.heard[self.pid] = max(self.heard[self.pid], self.clock.value)

    def _maybe_gc(self) -> None:
        self._since_gc += 1
        if self._since_gc >= self.gc_interval:
            self._since_gc = 0
            self.collect_garbage()

    def collect_garbage(self) -> int:
        """Fold the stable prefix into the base state; return entries freed.

        An update ``(cl, j)`` is stable when ``cl <= min(heard)``: over FIFO
        channels every not-yet-received message from process ``k`` was sent
        after the one stamped ``heard[k]``, so it carries a clock of at
        least ``heard[k] + 1 > cl`` (Lamport monotonicity) and can never
        sort into or before the prefix.
        """
        frontier = min(self.heard)
        if frontier > self._gc_clock_floor:
            # The floor is a completeness claim, not a fold marker: every
            # update with clock <= min(heard) is known (FIFO + Lamport
            # monotonicity), so it may advance even when nothing in the
            # live log falls under it.  Ids at or below it leave _known
            # with their log entries (_drop_prefix).
            self._gc_clock_floor = frontier
        # (frontier + 1,) sorts before (frontier + 1, 0): the cut is the
        # first entry with clock > frontier.
        cut = bisect_left(self._keys, (frontier + 1,))
        if cut == 0:
            return 0
        # Fold the prefix into the base state: one batch fold, one copy.
        self._base = self.spec.apply_batch(
            self._base, [s[2] for s in self.updates[:cut]]
        )
        self._gc_frontier = self._keys[cut - 1]
        self._drop_prefix(cut)
        if self._fast_path:
            # The arrival-order fold already contains the collected
            # prefix; only the log representation changed.
            pass
        else:
            # Shift cached replay structures left by `cut`.  The cached
            # state (old base + updates[:applied]) equals the new base
            # plus the surviving applied entries, so when the applied
            # prefix covers the cut only its index moves; otherwise the
            # cache is a strict sub-prefix of the new base and restarts
            # from it.
            self._ckpts.shift_left(cut, self._base)
            if self._applied >= cut:
                self._applied -= cut
            else:
                self._share_tip(0, self._base)
        self._collected.inc(cut)
        return cut

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        out = super().on_query(name, args)
        if self.track_witness and self._last_meta:
            # The folded prefix is reported as a floor instead of an
            # enumerated uid list (which would grow forever and defeat
            # GC's space bound): every update with clock <= the floor was
            # visible.  Trace consumers expand it against the recorded
            # update timestamps.
            self._last_meta["visible_floor"] = self._gc_clock_floor
        return out

    # -- anti-entropy v2: digests, state transfer, durable state --------------------

    def _sync_digest(self) -> SyncDigest:
        """Floors from the ``heard`` vector (the same reliable-FIFO
        argument that makes the stable prefix stable certifies "I know
        every j-update with clock <= heard[j]"), exception runs for the
        handful of ids learned above it (paged in by earlier sync
        rounds), and consent to install a state transfer."""
        return SyncDigest.from_runs(
            self._runs, tuple(self.heard), accepts_state=True
        )

    def _covers_uid(self, cl: int, j: int) -> bool:
        """Ids at or below the GC floor are known implicitly: they are
        folded into the base state and pruned from ``_known``."""
        return cl <= self._gc_clock_floor or (cl, j) in self._known

    def _serve_sync(self, requester: int, digest: SyncDigest) -> None:
        floor = self._gc_clock_floor
        if floor > 0 and any(
            digest.coverage_floor(j) < floor for j in range(self.n)
        ):
            # The requester is missing updates at or below our floor.
            # Those are folded into the base state and cannot be
            # enumerated, let alone paged — hand the compacted state off.
            if not digest.accepts_state:
                raise StateTransferRequired(
                    f"replica {requester} is missing updates at or below "
                    f"replica {self.pid}'s GC floor {floor}, which only a "
                    "state transfer can repair, but its digest does not "
                    "accept one (a replica without a base state)"
                )
            # The handoff is our journal's base record on its digest chain.
            self.send_to(requester, state_transfer(self))
            self._state_transfers.inc()
        super()._serve_sync(requester, digest)

    def _on_sync_state(self, src: int, payload: tuple) -> Sequence[Any]:
        # Verified as src's [meta, base] image before anything installs.
        if install_state_transfer(self, src, payload):
            self._state_installs.inc()
        return ()

    def install_gc_state(
        self,
        *,
        base: Any,
        clock_floor: int,
        frontier: tuple[int, int] | None = None,
    ) -> bool:
        """Adopt a compacted base state certified complete to
        ``clock_floor`` (from a state transfer or a durable snapshot).

        Safe because the sender's floor is a completeness claim over
        *every* author: the handed-off base contains every update with
        clock <= floor, so our live entries at or below it are duplicates
        of folded content and our own base (complete to a lower floor) is
        subsumed.  The clock is merged up to the floor first — a replica
        that adopted a floor and then stamped an update at or below it
        would violate its own peers' stability check.  Returns False (and
        installs nothing) when our floor is already at least as high.
        """
        self.clock.merge(clock_floor)
        if clock_floor <= self._gc_clock_floor:
            return False
        self._drop_prefix(bisect_left(self._keys, (clock_floor + 1,)))
        self._base = base
        self._gc_clock_floor = clock_floor
        if frontier is not None:
            previous = self._gc_frontier
            self._gc_frontier = (
                frontier if previous is None else max(previous, frontier)
            )
        for j in range(self.n):
            self.heard[j] = max(self.heard[j], clock_floor)
        # Cached replay structures predate the new base; rebuild from it.
        self._ckpts.reset(base)
        self._share_tip(0, base)
        if self._fast_path:
            # The handed-off base replaces our arrival-order fold's view
            # of the collected prefix wholesale; refold the surviving
            # live entries on top of it.
            self._fast_state = self.spec.fold_into(
                self.spec.thaw(base), [u for _, _, u in self.updates]
            )
            self._snapshot = None
        if self._own_suspect_below and clock_floor >= self._own_suspect_below:
            # The floor certifies every update (ours included) at or
            # below it, so the amnesia gap is provably repaired.
            self._own_suspect_below = 0
        return True

    def durable_gc_state(self) -> dict[str, Any]:
        """The GC-specific durable state for a snapshot: the compacted
        base, its completeness floor, the fold frontier and the ``heard``
        vector.  The base is an atomically-rewritten compacted segment in
        the on-disk model — unlike live log entries it is never truncated
        by a missed fsync (see :func:`repro.proto.wire.replica_snapshot`)."""
        return {
            "base": self._base,
            "clock_floor": self._gc_clock_floor,
            "frontier": self._gc_frontier,
            "heard": tuple(self.heard),
        }

    def finish_restore(
        self, pre_crash_clock: int, heard: Sequence[int] | None = None
    ) -> None:
        """Re-derive sound ``heard`` claims after a snapshot restore.

        With a complete snapshot (``heard`` given) the stored vector is
        adopted verbatim.  After a *truncated* restore the stored vector
        may over-claim — the lost log tail could contain updates the
        claims cover — so each column is rewound to what the surviving
        state proves: the floor (base completeness) raised by the highest
        surviving log clock per author (sound because truncation keeps a
        global ``(clock, pid)``-prefix, hence a per-author clock-prefix).
        If the pre-crash clock exceeds the rewound own column, this
        replica may have lost *its own* updates, and the own column is
        frozen until a state transfer certifies a floor above the gap.
        """
        if heard is not None:
            for j, claimed in enumerate(heard[: self.n]):
                self.heard[j] = max(self.heard[j], int(claimed))
            return
        for j in range(self.n):
            self.heard[j] = max(self.heard[j], self._gc_clock_floor)
        for cl, j, _u in self.updates:
            self.heard[j] = max(self.heard[j], cl)
        if pre_crash_clock > self.heard[self.pid]:
            self._own_suspect_below = pre_crash_clock

    @property
    def live_log_length(self) -> int:
        return len(self.updates)

    @property
    def gc_clock_floor(self) -> int:
        """Completeness floor of the base state: every update with clock
        at or below it (from any author) has been folded into ``_base``."""
        return self._gc_clock_floor

    @property
    def known_ids_tracked(self) -> int:
        """Ids enumerated in ``_known`` (the floor covers the rest) —
        the quantity satellite benchmarks assert stays bounded."""
        return len(self._known)
