"""Anti-entropy v2: compact digests, paged responses, state transfer.

A sync request that lists every update id the replica has ever seen costs
O(total updates) bits.  Section VII-C's complexity stance ("each message
only contains the information to identify the update and a timestamp")
and the ROADMAP's heavy-traffic north star both demand a summary whose
size tracks the *live* window, not the history.  This module defines that
summary and the wire tags of the handshake; the replica side (digest,
paging, state transfer) is :class:`repro.core.universal.UniversalReplica`'s.

A :class:`SyncDigest` describes a replica's knowledge per author process
``j`` as

* a **floor** — "I know *every* update authored by ``j`` with Lamport
  clock ``<= floors[j]``".  Floors are completeness claims and are only
  sound where the replica can actually certify completeness: a
  garbage-collected replica's ``heard`` vector over reliable FIFO
  channels (per-sender delivery order + Lamport monotonicity — the same
  argument that makes the stable prefix stable).  Plain replicas always
  advertise floor 0.
* an **exception set** above the floor — maximal runs ``(lo, hi)`` of
  *consecutive integer clocks* the replica knows from ``j``.  Every
  integer inside a run is a real update id (runs are built from the known
  set).  A responder keeps its own live ids as the same runs, so serving
  a request compares two run lists (:func:`first_gap`) and probes ids
  only from the first clock the requester lacks.

Lamport clocks stride under merges, so interval runs alone are not a
compact encoding of a long history — the floors are what keep a
garbage-collected replica's digest at O(n_procs + stragglers): everything
at or below ``heard[j]`` collapses into one integer, and only ids learned
out-of-band (paged in by a previous sync round, hence above ``heard``)
remain as exceptions.

Wire formats (all tuples tagged with a leading string, so they can never
be confused with ``(clock, pid, update)`` triples):

* ``(SYNC_REQ, requester, floors, intervals, accepts_state)`` — the
  request; no other shape is accepted.
* ``(SYNC_RESP, (stamped, ...))`` — one bounded page of missing updates;
  a repair that used to be one unbounded message is now a sequence of
  independent pages (no reassembly protocol: each page folds through the
  normal dedup/insert path).
* ``(SYNC_STATE, image_text)`` — state transfer, sent when the requester
  is missing updates the responder has already folded away and can no
  longer enumerate.  ``image_text`` is a two-record v3 journal image —
  the responder's meta record and its base record (compacted state,
  completeness floor, frontier) on its digest chain — built by
  :func:`repro.proto.wire.state_transfer`.  The receiver verifies it
  with :func:`repro.proto.wire.read_image` and installs it through the
  code a boot runs; a payload that is not such an image of the sender,
  or whose chain does not verify, is a :class:`SyncProtocolError` and
  installs nothing.
* ``(SYNC_DONE, clock)`` — the last frame a responder sends a requester
  whose digest ``accepts_state``, after every page and state transfer
  of the round: "every update I authored with a clock up to ``clock`` is
  in what I sent you or in what you told me you had".  Arriving on a
  connection, it completes that connection's *epoch* (DESIGN.md §11):
  only inside a completed epoch may live frames and heartbeats advance
  the receiver's ``heard`` claims.  A payload of any other shape is a
  :class:`SyncProtocolError`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import index
from typing import Any, Iterable, Iterator, Sequence

#: control-payload tags of the anti-entropy handshake.
SYNC_REQ = "sync-req"
SYNC_RESP = "sync-resp"
SYNC_STATE = "sync-state"
SYNC_DONE = "sync-done"

#: A peer link's epoch, as its receiver sees it (DESIGN.md §11): no
#: connection; a connection whose opening sync round has not completed;
#: a completed one, on which FIFO delivery certifies completeness.
LINK_DOWN, LINK_OPEN, LINK_COMPLETE = "down", "open", "complete"

#: A run of consecutive integer clocks ``(lo, hi)``, both ends included.
Run = tuple[int, int]
#: Coalesced runs of consecutive integer clocks: ``((lo, hi), ...)``.
Intervals = tuple[Run, ...]


class SyncProtocolError(RuntimeError):
    """A sync payload violated the anti-entropy protocol."""


class StateTransferRequired(SyncProtocolError):
    """The requester is missing updates at or below the responder's GC
    floor, which the responder has folded into its base state and cannot
    enumerate — only a state transfer can repair it, and the requester's
    digest declared it cannot install one (``accepts_state=False``).

    Without this error it would be a silent-divergence path: serving
    whatever is still in the live log and dropping the rest on the floor.
    """


def coalesce(clocks: Iterable[int]) -> Intervals:
    """Maximal runs of consecutive integers, as ``((lo, hi), ...)``."""
    runs: list[tuple[int, int]] = []
    lo = hi = None
    for c in sorted(set(clocks)):
        if hi is not None and c == hi + 1:
            hi = c
            continue
        if lo is not None:
            runs.append((lo, hi))
        lo = hi = c
    if lo is not None:
        runs.append((lo, hi))
    return tuple(runs)


def runs_above(runs: Sequence[Run], floor: int) -> Sequence[Run]:
    """What sorted, disjoint ``runs`` hold strictly above ``floor``: one
    bisect, a run straddling the floor clipped to start just above it."""
    i = bisect_left(runs, (floor + 1,))
    if i and runs[i - 1][1] > floor:
        return [(floor + 1, runs[i - 1][1]), *runs[i:]]
    return runs[i:]


def first_gap(runs: Sequence[Run], minus: Sequence[Run]) -> int | None:
    """The lowest clock that ``runs`` hold and ``minus`` does not, or
    ``None`` — both sorted and disjoint.  Equal lists answer with one
    comparison; otherwise the walk stops at the first gap, so it costs
    the runs below it, never the clocks."""
    if len(runs) == len(minus) and tuple(runs) == tuple(minus):
        return None
    i, m = 0, len(minus)
    for lo, hi in runs:
        while lo <= hi:
            while i < m and minus[i][1] < lo:
                i += 1
            # minus[i] is the first run ending at or above lo
            if i == m or minus[i][0] > lo:
                return lo
            lo = minus[i][1] + 1
    return None


@dataclass(frozen=True)
class SyncDigest:
    """A replica's knowledge summary: per-author floors + exception runs."""

    floors: tuple[int, ...]
    intervals: tuple[Intervals, ...]
    accepts_state: bool = False

    def __post_init__(self) -> None:
        if len(self.floors) != len(self.intervals):
            raise SyncProtocolError(
                f"digest floors ({len(self.floors)}) and intervals "
                f"({len(self.intervals)}) disagree on the process count"
            )

    @property
    def n(self) -> int:
        return len(self.floors)

    @classmethod
    def from_uids(
        cls,
        uids: Iterable[tuple[int, int]],
        n: int,
        *,
        floors: tuple[int, ...] | None = None,
        accepts_state: bool = False,
    ) -> "SyncDigest":
        """Digest a set of known ``(clock, pid)`` ids, keeping only ids
        strictly above the given floors as exception runs."""
        if floors is None:
            floors = (0,) * n
        per_pid: list[list[int]] = [[] for _ in range(n)]
        for cl, j in uids:
            if cl > floors[j]:
                per_pid[j].append(cl)
        return cls(
            floors=tuple(floors),
            intervals=tuple(coalesce(clocks) for clocks in per_pid),
            accepts_state=accepts_state,
        )

    @classmethod
    def from_runs(
        cls,
        runs: list[list[tuple[int, int]]],
        floors: tuple[int, ...],
        *,
        accepts_state: bool = False,
    ) -> "SyncDigest":
        """The digest :meth:`from_uids` builds, from the per-author runs a
        replica maintains as ids become known — no pass over the ids."""
        return cls(
            floors,
            tuple(tuple(runs_above(r, f)) for r, f in zip(runs, floors)),
            accepts_state,
        )

    # -- queries ------------------------------------------------------------------

    def covers(self, cl: int, j: int) -> bool:
        """Does this digest claim knowledge of update id ``(cl, j)``?"""
        if cl <= self.floors[j]:
            return True
        runs = self.intervals[j]
        # Runs are sorted and disjoint; ``(cl + 1,)`` sorts before every
        # run starting above ``cl``, so the one before it is the only
        # run that can hold ``cl``.
        i = bisect_left(runs, (cl + 1,))
        return i > 0 and cl <= runs[i - 1][1]

    def coverage_floor(self, j: int) -> int:
        """The largest clock ``C`` such that this digest claims *every*
        ``j``-update with clock ``<= C`` (floor extended by any exception
        runs adjacent to it)."""
        floor = self.floors[j]
        for lo, hi in self.intervals[j]:
            if lo > floor + 1:
                break
            floor = max(floor, hi)
        return floor

    # -- wire codec ---------------------------------------------------------------

    def request_payload(self, requester: int) -> tuple:
        """The sync-request wire tuple for this digest."""
        return (SYNC_REQ, requester, self.floors, self.intervals,
                self.accepts_state)

    def request_bits(self, requester: int) -> int:
        """``payload_size_bits(self.request_payload(requester))`` in closed
        form, without building or walking the tuple: each int costs its
        bit length (at least 1), the tag 8 bits per byte, the flag 1.
        Runs hold only ids above a floor, so a 0 can only open an
        author's first run."""
        bits = 8 * len(SYNC_REQ) + (requester.bit_length() or 1) + 1
        for floor in self.floors:
            bits += floor.bit_length() or 1
        for runs in self.intervals:
            if runs:
                lo, hi = runs[0]
                bits += sum(map(int.bit_length, chain.from_iterable(runs)))
                bits += (lo == 0) + (hi == 0)
        return bits


def parse_sync_request(payload: tuple) -> tuple[int, SyncDigest]:
    """``(requester, digest)`` from a sync-request payload.

    Every value must be a non-negative int, and each author's runs sorted
    and disjoint with ``lo <= hi``: :meth:`SyncDigest.covers` and
    :func:`first_gap` bisect and walk them on that promise, so a digest
    that breaks it would silently change what gets paged."""
    if not (
        isinstance(payload, tuple) and len(payload) == 5 and payload[0] == SYNC_REQ
    ):
        raise SyncProtocolError(f"malformed sync request: {payload!r}")
    _, requester, floors, intervals, accepts_state = payload
    try:
        return _natural(requester), SyncDigest(
            floors=tuple(_natural(f) for f in floors),
            intervals=tuple(_runs(runs) for runs in intervals),
            accepts_state=bool(accepts_state),
        )
    except (TypeError, ValueError) as exc:
        raise SyncProtocolError(f"malformed sync request: {exc}") from None


def parse_sync_done(payload: tuple) -> int:
    """The responder's clock at serve time from a ``SYNC_DONE`` payload."""
    if not (
        isinstance(payload, tuple) and len(payload) == 2 and payload[0] == SYNC_DONE
    ):
        raise SyncProtocolError(f"malformed sync-done marker: {payload!r}")
    try:
        return _natural(payload[1])
    except (TypeError, ValueError) as exc:
        raise SyncProtocolError(f"malformed sync-done marker: {exc}") from None


def _natural(value: Any) -> int:
    """``value`` as a non-negative int; a bool or anything else is refused."""
    if isinstance(value, bool) or index(value) < 0:
        raise ValueError(f"{value!r} is not a non-negative int")
    return index(value)


def _runs(runs: Iterable[Run]) -> Intervals:
    """One author's runs, checked sorted and disjoint as they convert."""
    out: list[Run] = []
    above = -1  # each run starts past the previous one's end, so >= 0
    for lo, hi in runs:
        if type(lo) is not int or type(hi) is not int:
            lo, hi = _natural(lo), _natural(hi)
        if lo <= above or hi < lo:
            raise ValueError(f"run {(lo, hi)} is empty or not above {above}")
        out.append((lo, hi))
        above = hi
    return tuple(out)


def pages(entries: list, page_size: int) -> Iterator[tuple]:
    """Split a missing-update list into bounded sync-resp batches."""
    if page_size <= 0:
        raise ValueError("sync page size must be positive")
    for start in range(0, len(entries), page_size):
        yield tuple(entries[start:start + page_size])

