"""Algorithm 1 — the universal strong-update-consistent construction.

Every UQ-ADT has a wait-free SUC implementation (Proposition 4).  Each
replica keeps:

* ``clock`` — a Lamport clock (line 2);
* ``updates`` — every timestamped update it has heard of, kept sorted by
  the ``(clock, pid)`` lexicographic order (line 3).

``update(u)`` ticks the clock and broadcasts ``(clock, pid, u)`` (lines
4-7); the replica applies its own message immediately (the proof's
"messages are received instantaneously by the sender").  ``query(q)``
ticks the clock, replays *all* known updates in timestamp order from the
initial state, and evaluates the query on the result (lines 12-19).  No
operation ever waits on the network: this is wait-freedom, and it is why
the construction only achieves update consistency — a query may replay an
update log missing concurrent remote updates, returning an out-dated
value, but all replicas converge to the state of the agreed linearization.

The replica also records the Definition 9 witness as it runs (timestamps
= the arbitration ``≤``; the set of received updates at query time = the
visibility relation), which is exactly how Proposition 4's proof certifies
correctness.  Every replica records it: a query's visibility set is an
O(1) view of the ids that had arrived (:meth:`on_query`).

How a query reaches its state is the replica's
:class:`~repro.core.replay.Replay`, chosen at construction (``replay=``):
Algorithm 1's full replay (the default), the checkpoint tree, the keyed
replay, undo/redo, or the arrival-order fold that is picked by default on
a spec declaring ``commutative_updates`` — the Section VII-C
optimizations, see
:mod:`repro.core.replay`.  Whichever answers, the sorted log, the
``(clock, pid)`` keys, the witness metadata, anti-entropy, persistence
and GC are the same.  Replay cost is charged to
queries only: ``repro_replica_replayed_updates_total`` is the Section
VII-C query replay cost that benches and the run report consume, and
introspection (:meth:`local_state`, convergence checks) reads the
replay's uncharged :meth:`~repro.core.replay.Replay.peek`.
Every replica has one state shape — a base folded to a completeness
floor, ``heard`` claims, the live log above the floor — and this class
owns it with the digest, state transfer and base record that read it.
On Algorithm 1 nothing moves it (floor 0, initial base, ``heard`` all 0);
:class:`repro.core.checkpoint.GarbageCollectedReplica` is the policy that
moves the floor (stable-prefix garbage collection).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import itemgetter
from typing import Any, Hashable, Iterable, Sequence

from repro.core.adt import UQADT, Update
from repro.core import sync as sync_protocol
from repro.core.replay import make_replay
from repro.core.sync import (
    StateTransferRequired,
    SyncDigest,
    SyncProtocolError,
    first_gap,
    pages,
    parse_sync_request,
    runs_above,
)
from repro.obs.metrics import MetricsRegistry
from repro.proto.wire import install_state_transfer, state_transfer
from repro.sim.replica import KnownIds, Replica
from repro.util.clocks import LamportClock

#: A timestamped update as shipped on the wire: ``(clock, pid, update)``.
#: Plain tuples, not dataclasses: these are the hottest objects in the
#: repo (one per update per replica) and tuple allocation + indexing beats
#: any attribute access on the replay path.
Stamped = tuple[int, int, Update]


class UniversalReplica(Replica):
    """One process's state of Algorithm 1 for an arbitrary UQ-ADT.

    Beyond the paper's lines 1-20, the replica speaks the anti-entropy v2
    dialect of :mod:`repro.core.sync`, used by crash-recovery and
    lossy-channel repair: a peer broadcasts a :meth:`sync_request`
    carrying a compact :class:`~repro.core.sync.SyncDigest` of its
    knowledge (per-author completeness floors plus exception runs);
    receivers reply point-to-point with the updates the requester lacks,
    split into pages of at most ``sync_page_size`` entries, and
    counter-request when the digest claims ids they do not know.  Control
    payloads are tuples tagged with a leading string, so they can never
    be confused with ``(clock, pid, update)`` wire triples.
    """

    __slots__ = (
        "spec",
        "replay",
        "sync_page_size",
        "clock",
        "updates",
        "relay",
        "_keys",
        "_runs",
        "unflushed_from",
        "journaled",
        "_known",
        "heard",
        "_base",
        "_gc_frontier",
        "_gc_clock_floor",
        "_last_meta",
        "_arrived",
        "_last_visible",
        "_sync_requests",
        "_sync_request_bits",
        "_sync_pages",
        "_sync_shipped",
        "_sync_redundant",
        "_state_transfers",
        "_state_installs",
    )

    #: control-payload tags (anti-entropy handshake; see repro.core.sync).
    SYNC_REQ = sync_protocol.SYNC_REQ
    SYNC_RESP = sync_protocol.SYNC_RESP
    SYNC_STATE = sync_protocol.SYNC_STATE
    SYNC_DONE = sync_protocol.SYNC_DONE

    #: the replay ``replay=None`` picks on a spec whose updates do not
    #: commute (on one that declares ``commutative_updates``: ``"fold"``).
    DEFAULT_REPLAY = "naive"

    #: whether the base is kept, so a state transfer or a journal's base
    #: record may replace it: the digest's ``accepts_state``, the refusal
    #: of :meth:`install_gc_state` and ``wire.journal_records`` read it.
    accepts_state = False

    def __init__(
        self,
        pid: int,
        n: int,
        spec: UQADT,
        *,
        replay: str | None = None,
        checkpoint_interval: int | None = None,
        relay: bool = False,
        sync_page_size: int = 64,
    ) -> None:
        if sync_page_size <= 0:
            raise ValueError("sync page size must be positive")
        #: how queries fold the log (Section VII-C; :mod:`repro.core.replay`).
        #: Built before the base constructor, which binds its metrics.
        self.replay = make_replay(
            spec, replay, default=self.DEFAULT_REPLAY,
            checkpoint_interval=checkpoint_interval,
        )
        super().__init__(pid, n)
        self.spec = spec
        #: bound on sync-resp batch size: one repair round never ships an
        #: unbounded message, however far behind the requester is.
        self.sync_page_size = sync_page_size
        self.clock = LamportClock(pid)
        self.updates: list[Stamped] = []
        #: parallel ``(clock, pid)`` key list for ``updates``: bisecting a
        #: flat tuple list needs no per-comparison key callable.
        self._keys: list[tuple[int, int]] = []
        #: per author, the sorted maximal runs ``(lo, hi)`` of consecutive
        #: clocks among the live log's ids: the sync digest's exception
        #: runs, kept as ids become known (:meth:`_insert`) and are folded
        #: away (:meth:`_drop_prefix`) instead of rebuilt every tick.
        self._runs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        #: the flush mark: ``updates[:unflushed_from]`` is unchanged since
        #: :meth:`mark_flushed` (or since the log was loaded from its
        #: durable image), so a journal flush looks at the suffix from
        #: here only.  Appends never lower it, a late message lowers it to
        #: where it landed, a collected prefix shifts it left.
        self.unflushed_from = 0
        #: whether a storage engine journals this replica: a collection
        #: then folds only entries below the flush mark, so the journal's
        #: base and entries cover every update under the floor even while
        #: a rewrite waits (:class:`~repro.storage.engine.JournalStore`).
        self.journaled = False
        #: epidemic relay: re-broadcast first-seen updates.  Algorithm 1
        #: assumes *reliable* broadcast — all-or-nothing delivery even when
        #: the sender crashes mid-broadcast.  Point-to-point channels only
        #: give that for correct senders; flooding upgrades them to uniform
        #: reliable broadcast at the cost of O(n) messages per update per
        #: replica.  Needed only under crash-with-message-loss adversaries.
        self.relay = relay
        #: the ids of the live log as a set: ``_known == set(_keys)``.
        self._known: set[tuple[int, int]] = set()
        #: per author, the clock up to which every update is known (the
        #: digest's floors); ``_base`` folds every update of any author at
        #: or below ``_gc_clock_floor``, the largest of them (clock, pid)
        #: is ``_gc_frontier``, and their ids are not kept in ``_known``.
        self.heard: list[int] = [0] * n
        self._base: Any = spec.initial_state()
        self._gc_frontier: tuple[int, int] | None = None
        self._gc_clock_floor = 0
        self._last_meta: dict[str, Any] = {}
        #: the live log's ids in arrival order, append-only: a query's
        #: visibility set is the prefix that had arrived by then, an O(1)
        #: :class:`~repro.sim.replica.KnownIds` view.  :meth:`_drop_prefix`
        #: rebinds it and never mutates it in place, so no view changes.
        self._arrived: list[tuple[int, int]] = []
        #: the last view captured, shared by the next query if nothing
        #: arrived in between.
        self._last_visible: KnownIds | None = None

    # -- observability ---------------------------------------------------------------

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        self.replay.bind_metrics(registry, self.pid)
        #: anti-entropy accounting (digest size, paging, redundancy).
        self._sync_requests = registry.counter(
            "repro_sync_requests_total",
            help="anti-entropy sync requests issued",
            label_names=("pid",),
        ).labels(pid=self.pid)
        self._sync_request_bits = registry.counter(
            "repro_sync_request_bits_total",
            help="estimated wire bits of issued sync-request digests "
            "(v2 target: O(n_procs + stragglers), not O(history))",
            label_names=("pid",),
        ).labels(pid=self.pid)
        self._sync_pages = registry.counter(
            "repro_sync_pages_sent_total",
            help="bounded sync-resp pages served to requesters",
            label_names=("pid",),
        ).labels(pid=self.pid)
        self._sync_shipped = registry.counter(
            "repro_sync_updates_shipped_total",
            help="updates shipped inside sync-resp pages",
            label_names=("pid",),
        ).labels(pid=self.pid)
        self._sync_redundant = registry.counter(
            "repro_sync_redundant_updates_total",
            help="sync-resp entries that were already known (or already "
            "folded into the base state) on arrival",
            label_names=("pid",),
        ).labels(pid=self.pid)
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

    # -- Algorithm 1 ---------------------------------------------------------------

    def on_update(self, update: Update) -> Sequence[Any]:
        cl = self.clock.tick_value()  # line 5
        pid = self.pid
        stamped: Stamped = (cl, pid, update)
        self._insert(stamped)  # instantaneous self-delivery
        self._last_meta = {"timestamp": (cl, pid)}
        return (stamped,)  # line 6: broadcast

    def on_message(self, src: int, payload: Any) -> Sequence[Any]:
        if payload.__class__ is tuple and payload and payload[0].__class__ is str:
            return self._on_control(src, payload[0], payload)
        cl, j, update = payload
        if self._covers_uid(cl, j):
            return ()  # relayed / network duplicate
        return self._learn((cl, j, update))

    def _on_control(self, src: int, tag: str, payload: tuple) -> Sequence[Any]:
        """A tagged control payload: the anti-entropy handshake."""
        if tag == self.SYNC_REQ:
            return self._on_sync_request(payload)
        if tag == self.SYNC_RESP:
            extra: list[Any] = []
            for stamped in payload[1]:
                extra.extend(self._ingest_synced(src, stamped))
            return extra
        if tag == self.SYNC_STATE:
            # verified as src's [meta, base] image before anything installs
            if install_state_transfer(self, src, payload):
                self._state_installs.inc()
            return ()
        raise SyncProtocolError(f"unknown control payload {payload!r:.80}")

    # -- anti-entropy (crash-recovery & lossy-channel repair) -----------------------

    def sync_request(self) -> tuple:
        """The pull half of the anti-entropy handshake: broadcast this and
        every receiver pages back the updates this replica's digest does
        not cover (plus a state transfer if it certifies a higher floor)."""
        digest = self._sync_digest()
        self._sync_requests.inc()
        self._sync_request_bits.inc(digest.request_bits(self.pid))
        return digest.request_payload(self.pid)

    def _sync_digest(self) -> SyncDigest:
        """This replica's knowledge summary: ``heard`` as the floors (all
        0 on Algorithm 1, which cannot certify completeness) and the
        maintained runs — value for value what
        :meth:`SyncDigest.from_uids` builds from the known set."""
        return SyncDigest.from_runs(
            self._runs, tuple(self.heard), accepts_state=self.accepts_state
        )

    def _covers_uid(self, cl: int, j: int) -> bool:
        """Is update id ``(cl, j)`` in the live log or folded into the base?"""
        return cl <= self._gc_clock_floor or (cl, j) in self._known

    def _on_sync_request(self, payload: tuple) -> Sequence[Any]:
        requester, digest = parse_sync_request(payload)
        if digest.n != self.n or requester >= self.n:
            raise SyncProtocolError(
                f"sync request from {requester} digests {digest.n} "
                f"processes, replica {self.pid} runs {self.n}"
            )
        self._serve_sync(requester, digest)
        if not self._round_open(requester) and self._digest_claims_unknown(digest):
            # The requester has updates we lack (e.g. restored from its
            # durable log after a crash): pull them back.
            self.send_to(requester, self.sync_request())
        return ()

    def _round_open(self, peer: int) -> bool:
        """Is a sync round this replica opened with ``peer`` still in
        flight?  Its request already asks for everything we lacked, so a
        counter-request would only page it all a second time.  Algorithm 1
        keeps no link epochs: never."""
        return False

    def _serve_sync(self, requester: int, digest: SyncDigest) -> None:
        """Page the live updates the digest does not cover back to the
        requester, after a state transfer when its coverage ends below
        this replica's floor (never on Algorithm 1, whose floor is 0),
        and end the round with a ``SYNC_DONE`` marker when the requester
        keeps completeness claims (its digest ``accepts_state``).

        Per author, this replica's runs above the requester's floor are
        compared with the digest's runs: equal lists cost one comparison,
        and the lowest clock the digest lacks is where the log — sorted by
        clock — starts to be scanned.  Replicas that agree scan nothing;
        otherwise the scan ships from the first gap on, in log order."""
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
        gaps = [
            gap
            for runs, floor, claimed in zip(
                self._runs, digest.floors, digest.intervals
            )
            if (gap := first_gap(runs_above(runs, floor), claimed)) is not None
        ]
        if gaps:
            start = bisect_left(self._keys, (min(gaps),))
            covers = digest.covers
            missing = [
                s for s in self.updates[start:] if not covers(s[0], s[1])
            ]
            for page in pages(missing, self.sync_page_size):
                self._sync_pages.inc()
                self._sync_shipped.inc(len(page))
                self.send_to(requester, (self.SYNC_RESP, page))
        if digest.accepts_state:
            # The round is complete: after every page on this FIFO link,
            # certify our own authorship up to what we vouch for now.
            self.send_to(requester, (self.SYNC_DONE, self._own_floor()))

    def _digest_claims_unknown(self, digest: SyncDigest) -> bool:
        """Does the requester's digest *enumerate* an id this replica
        lacks?  The serve's run comparison the other way round: per
        author, the digest's runs above this replica's floor
        against the live log's runs — one comparison when they are equal.

        Deliberately ignores the requester's floors: a floor claims ids
        without naming them, so "your floor is above mine" cannot be
        answered with a targeted pull — and since ingesting pages never
        moves a floor, floor-triggered counter-requests between two
        replicas with incomparable floors would ping-pong forever.  Floor
        asymmetry is repaired by the all-to-all rounds of
        :meth:`repro.sim.cluster.Cluster.anti_entropy`, where the
        lower-floored replica issues its own request and receives pages
        or a state transfer."""
        floor = self._gc_clock_floor
        return any(
            first_gap(runs_above(claimed, floor), runs) is not None
            for claimed, runs in zip(digest.intervals, self._runs)
        )

    def _own_floor(self) -> int:
        """The clock up to which this replica vouches for having every
        update it authored — what a ``SYNC_DONE`` certifies.  Algorithm 1
        keeps no such claim, so it vouches for nothing (0)."""
        return self.heard[self.pid]

    def _ingest_synced(self, src: int, stamped: Stamped) -> Sequence[Any]:
        """Fold one sync-resp entry.  Unlike a live broadcast this must
        tolerate benign duplicates — a second responder may page an update
        another page (or an installed state transfer) already delivered —
        so covered entries are counted and dropped, never an error."""
        cl, j, update = stamped
        if self._covers_uid(cl, j):
            self._sync_redundant.inc()
            return ()
        return self._learn((cl, j, update))

    def _learn(self, stamped: Stamped) -> Sequence[Any]:
        """Lines 9-10 for a remote update not known yet, however it
        arrived; returns what an epidemic relay re-broadcasts."""
        self.clock.merge(stamped[0])  # line 9
        self._insert(stamped)  # line 10
        return (stamped,) if self.relay else ()

    # -- the folded state: base, floor, frontier, heard ----------------------------

    def install_gc_state(
        self,
        *,
        base: Any,
        clock_floor: int,
        frontier: tuple[int, int] | None = None,
    ) -> bool:
        """Adopt a compacted base state certified complete to
        ``clock_floor`` (from a state transfer or a durable snapshot).

        Safe because the floor is a completeness claim over *every*
        author: our live entries at or below it are duplicates of folded
        content, and our own base (complete to a lower floor) is subsumed.
        The clock is merged up to the floor first, so this replica never
        stamps an update under a floor its peers have adopted.  Returns
        False (installing nothing) when our floor is already as high;
        raises :class:`ValueError` on a replica that keeps no base.
        """
        if not self.accepts_state:
            raise ValueError(
                f"replica {self.pid} ({type(self).__name__}) keeps no "
                "compacted base state; restore into a GarbageCollectedReplica"
            )
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
        self.replay.installed(self.updates, base)
        return True

    def durable_gc_state(self) -> dict[str, Any]:
        """The folded state a journal's base record holds: base, floor,
        fold frontier and ``heard`` (see :func:`repro.proto.wire.base_record`)."""
        return {
            "base": self._base,
            "clock_floor": self._gc_clock_floor,
            "frontier": self._gc_frontier,
            "heard": tuple(self.heard),
        }

    def finish_restore(
        self, pre_crash_clock: int, heard: Sequence[int] | None = None
    ) -> None:
        """Re-derive ``heard`` claims after a durable restore: nothing to
        re-derive on a replica that certifies none."""

    @property
    def installed_floor(self) -> int:
        """The highest floor installed from outside (a state transfer or a
        durable base); 0 on a replica that keeps no base."""
        return 0

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

    def load_log(self, entries: Iterable[Stamped]) -> int:
        """Rebuild from a durable update log of ``(clock, pid, update)``
        tuples (crash-recovery).

        Entries are deduplicated and the clock merged, so a truncated log
        — an fsync that missed the tail — is safe: the anti-entropy
        handshake refetches the rest.  They are sorted first (a journal
        holds them in arrival order), so each appends in O(1) instead of
        bisecting its way in; a log that was empty came wholly from the
        durable image, so the flush mark moves past it.  Returns the
        number of entries actually loaded.
        """
        fresh = sorted(entries, key=itemgetter(0, 1))
        if not fresh:
            return 0
        self.clock.merge(fresh[-1][0])
        covers = self._covers_uid
        before = len(self.updates)
        for stamped in fresh:
            # known already, under the GC floor, or appended to the
            # journal a second time around a late insert
            if not covers(stamped[0], stamped[1]):
                self._insert(stamped)
        if not before:
            self.mark_flushed()
        return len(self.updates) - before

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        cl = self.clock.tick_value()  # line 13
        state = self.replay.query(self.updates)  # lines 14-17
        visible = self._last_visible = KnownIds.whole(
            self._arrived, self._last_visible
        )
        meta = {"timestamp": (cl, self.pid), "visible": visible}
        if self.accepts_state:
            # The folded prefix is reported as a floor instead of an
            # enumerated id list (which would grow forever and defeat
            # GC's space bound): every update with clock <= the floor was
            # visible.  ``Trace.witness_ids`` expands it.
            meta["visible_floor"] = self._gc_clock_floor
        self._last_meta = meta
        return self.spec.observe(state, name, args)  # line 18

    # -- internals -----------------------------------------------------------------

    def _insert(self, stamped: Stamped) -> None:
        """Insert keeping the ``(clock, pid)`` sort (line 15's order).

        ``(clock, pid)`` pairs are unique across updates, so the order is
        total without ever comparing the (orderless) update payload.  The
        common case — a fresh update sorting after everything known —
        appends in O(1); late messages bisect the flat key list.
        """
        key = (stamped[0], stamped[1])
        keys = self._keys
        if not keys or key > keys[-1]:
            keys.append(key)
            self.updates.append(stamped)
            pos = len(keys) - 1
        else:
            pos = bisect_left(keys, key)
            keys.insert(pos, key)
            self.updates.insert(pos, stamped)
            if pos < self.unflushed_from:
                self.unflushed_from = pos
        self._known.add(key)
        self._arrived.append(key)
        cl, j = key
        runs = self._runs[j]
        if not runs or cl > runs[-1][1] + 1:
            runs.append((cl, cl))
        elif cl == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], cl)
        else:
            # Late: join the run ending just below and the one starting
            # just above, whichever exist.
            i = bisect_left(runs, (cl + 1,))
            lo = runs[i - 1][0] if i and runs[i - 1][1] == cl - 1 else cl
            hi = runs[i][1] if i < len(runs) and runs[i][0] == cl + 1 else cl
            runs[i - (lo < cl):i + (hi > cl)] = [(lo, hi)]
        self.replay.inserted(self.updates, pos)

    def _drop_prefix(self, cut: int) -> None:
        """Delete the first ``cut`` log entries — every one stamped at or
        below some clock, folded into a base state — keeping the
        per-entry bookkeeping in step."""
        if cut <= 0:
            return
        self._known.difference_update(islice(self._keys, cut))
        floor = self._keys[cut - 1][0]
        self._runs = [runs_above(runs, floor) for runs in self._runs]
        del self.updates[:cut]
        del self._keys[:cut]
        self.unflushed_from = max(0, self.unflushed_from - cut)
        # a new list: views captured before the cut still read the old one
        self._arrived = list(self._keys)

    def mark_flushed(self) -> None:
        """The storage engine made the whole log durable."""
        self.unflushed_from = len(self.updates)

    # -- introspection --------------------------------------------------------------

    def local_state(self) -> Any:
        return self.replay.peek(self.updates)

    def witness_meta(self) -> dict[str, Any]:
        meta, self._last_meta = self._last_meta, {}
        return meta

    @property
    def log_length(self) -> int:
        return len(self.updates)

    def known_timestamps(self) -> list[tuple[int, int]]:
        return list(self._keys)
