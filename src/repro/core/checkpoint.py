"""Section VII-C optimization: stable-prefix garbage collection.

Algorithm 1 keeps every update forever.  The paper notes that "after some
time old messages can be garbage collected".  Every replica has the
state shape that allows it (:class:`~repro.core.universal.UniversalReplica`:
a base folded to a floor, ``heard``, the live log); this module is only
the *policy* that moves the floor.  :class:`GarbageCollectedReplica`
tracks, per peer, the highest Lamport clock heard from it.  An update
stamped below every peer's heard-clock can never be preceded by a
yet-unknown update (Lamport clocks are monotone along messages), so the
prefix of such updates is *stable*: it is folded into a base state and
dropped from the log.  Idle processes keep the
frontier moving with heartbeats (clock-only messages).

Stability relies on per-sender delivery order: run it over FIFO channels
(``Cluster(..., fifo=True)``).  With arbitrary reordering an in-flight
message could be stamped below an already-heard clock and sort under the
collected prefix — the replica detects that and raises
:class:`StabilityViolation` rather than silently diverging.

Collection is orthogonal to how queries are answered: the replica's
:class:`~repro.core.replay.Replay` is told when a prefix is collected into
a new base and when a base is installed wholesale, whichever of the four
replays it is (the checkpoint tree by default, the arrival-order fold on
a spec declaring ``commutative_updates``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Hashable, Sequence

from repro.core.adt import UQADT
from repro.core.universal import UniversalReplica
from repro.obs.metrics import MetricsRegistry


class StabilityViolation(RuntimeError):
    """A message arrived below the garbage-collected frontier (the network
    reordered per-sender traffic; stable-prefix GC needs FIFO channels)."""


class GarbageCollectedReplica(UniversalReplica):
    """Algorithm 1 plus stable-prefix garbage collection.

    The wire format grows a heartbeat variant: updates travel as
    ``(clock, pid, update)`` like the base class; heartbeats as
    ``("hb", clock, pid)``.  GC folds the stable prefix into the base
    state; ``repro_replica_collected_entries_total`` counts discarded log
    entries.  The digest, state transfer and base record that read the
    floor are the base class's, switched on by :attr:`accepts_state`.
    """

    __slots__ = (
        "gc_interval",
        "_since_gc",
        "_own_suspect_below",
        "_installed_floor",
        "_collected",
    )

    HEARTBEAT = "hb"

    DEFAULT_REPLAY = "checkpoint"

    accepts_state = True

    def __init__(
        self,
        pid: int,
        n: int,
        spec: UQADT,
        *,
        replay: str | None = None,
        checkpoint_interval: int | None = None,
        gc_interval: int = 128,
        track_witness: bool = False,
        relay: bool = False,
        sync_page_size: int = 64,
    ) -> None:
        if relay:
            raise ValueError(
                "stable-prefix GC cannot run with epidemic relay: a "
                "relayed duplicate stamped under the collected frontier is "
                "indistinguishable from a stability violation"
            )
        super().__init__(
            pid, n, spec,
            replay=replay,
            checkpoint_interval=checkpoint_interval,
            track_witness=track_witness,
            sync_page_size=sync_page_size,
        )
        if gc_interval <= 0:
            raise ValueError("gc interval must be positive")
        self.gc_interval = gc_interval
        self._since_gc = 0
        #: crash-recovery honesty guard: after a truncated restore this
        #: replica may have *lost its own updates* with clocks at or below
        #: the recorded value, so its own ``heard`` column must not advance
        #: until a state transfer certifies a floor covering the gap.
        self._own_suspect_below = 0
        #: the highest floor installed from outside (a state transfer or a
        #: durable base): it certifies other replicas' deliveries, so
        #: triples at or below it may still be in flight on our channels.
        self._installed_floor = 0

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        #: log entries folded away by stable-prefix GC.
        self._collected = registry.counter(
            "repro_replica_collected_entries_total",
            help="update-log entries garbage-collected into the base state "
            "(the stable prefix of Section VII-C)",
            label_names=("pid",),
        ).labels(pid=self.pid)

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
        if self._installed_floor < cl <= self._gc_clock_floor:
            # At or below an installed floor the triple is a duplicate of
            # folded content, and the base class drops it as covered.
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
        self.replay.collected(cut, self._base)
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

    # -- crash recovery: the own-authorship guard ---------------------------------

    def install_gc_state(
        self, *, base: Any, clock_floor: int,
        frontier: tuple[int, int] | None = None,
    ) -> bool:
        installed = super().install_gc_state(
            base=base, clock_floor=clock_floor, frontier=frontier
        )
        if installed:
            self._installed_floor = clock_floor
            if clock_floor >= self._own_suspect_below:
                # The floor certifies every update (ours included) at or
                # below it, so any amnesia gap is provably repaired.
                self._own_suspect_below = 0
        return installed

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
