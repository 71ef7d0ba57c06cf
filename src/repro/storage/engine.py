"""The storage engine: a journal plus a current-state k/v map.

Modeled on ``statejournal`` (SNIPPETS.md): the durable truth is the
append-only journal (:mod:`repro.storage.journal`); on top of it the
engine keeps an in-memory *current-state* map ``key -> (update_counter,
record)`` — the latest journal record for each logical cell, referenced
by the journal's monotone update counter.  The cells are exactly the
:mod:`repro.proto.wire` v3 record vocabulary:

* ``"clock"`` — the write-ahead Lamport clock cell.  Re-appended (cheap:
  one small record) whenever the clock advanced, *before* the entries of
  the same batch, so a recovering process never reuses a timestamp even
  when the batch's entry tail is torn off.
* ``"base"`` — the compacted GC segment (base state, clock floor, fold
  frontier, heard vector).  Written at journal birth for GC replicas and
  rewritten by compaction.
* ``"heard"`` — the GC replica's heard vector on its own, re-appended
  (one small record) whenever it advanced between compactions, so a
  recovered replica's completeness claims are as fresh as its last
  flush, not its last compaction.
* ``"<clock>.<pid>"`` — one cell per logged update, keyed by its Lamport
  timestamp.  The journal's update counter refines the very total order
  the paper's Algorithm 1 replays in, which is why replaying the journal
  start-to-end and restoring a one-shot snapshot land in the same state.

Writes are *incremental*: :meth:`JournalStore.sync` appends only the
cells that changed since the last sync, so the per-update write cost is
flat in the log length — the whole point over rewriting the entire image
on every flush (see ``benchmarks/bench_storage``).

Compaction is keyed to the GC replica's floor: once
``replica.gc_clock_floor`` passes what the on-disk base record covers,
the folded entry cells are dead weight and the journal is atomically
rewritten (tmp + rename + dir fsync) to a fresh generation holding just
the new base and the surviving tail.
"""

from __future__ import annotations

import os
from typing import Any

from repro.proto.wire import (
    base_record,
    clock_record,
    decode_value,
    encode_ts_key,
    entry_record,
    heard_record,
    journal_image,
    journal_records,
    meta_record,
)
from repro.storage.journal import Journal

#: k/v keys of the singleton cells (every other key is a timestamp).
CLOCK_KEY = "clock"
BASE_KEY = "base"
HEARD_KEY = "heard"


class JournalStore:
    """One replica's durable storage engine.

    Lifecycle: :meth:`open` once (recovers whatever the journal holds and
    returns it as a v3 image for ``ProtocolCore.recover``), then
    :meth:`sync` on every dirty-flag flush, :meth:`close` on shutdown.
    """

    def __init__(self, path: str, pid: int, *, fsync: bool = True) -> None:
        self.path = str(path)
        self.pid = int(pid)
        self.fsync = fsync
        self._journal: Journal | None = None
        #: current-state map: key -> (update_counter, record).
        self.kv: dict[str, tuple[int, dict]] = {}
        self._counter = 0
        self._clock_written = -1
        self._base_floor: int | None = None
        self._heard_written: tuple[int, ...] | None = None
        #: whether the last :meth:`open` truncated a torn tail.
        self.truncated_tail = False
        self.compactions = 0
        self.appends = 0

    # -- lifecycle ---------------------------------------------------------------

    def open(self) -> str | None:
        """Open/create the journal; recover its contents.

        Returns the surviving state as a v3 image (text) to feed to
        ``ProtocolCore.recover`` — whose restore re-verifies the digest
        chain end to end — or ``None`` when the journal is fresh/empty.
        Raises :class:`CorruptImageError` on mid-file damage.
        """
        journal, records, torn = Journal.open(self.path, self.pid, fsync=self.fsync)
        self._journal = journal
        self.truncated_tail = torn
        for rec in records:
            self._account(rec)
        if len(records) <= 1:  # nothing but (at most) the meta record
            return None
        return journal_image(
            self.pid, records, journal.digest_hex, complete=not torn
        )

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- the write path ----------------------------------------------------------

    def sync(self, replica: Any) -> dict[str, int]:
        """Append whatever changed since the last sync; maybe compact.

        The append order is the write-ahead discipline: base (only at
        journal birth), then the clock cell, then new entry cells — so
        any torn suffix of a batch loses entries, never the clock that
        stamped them.  Returns ``{"appended": ..., "compacted": 0|1}``.
        """
        journal = self._require_journal()
        durable_gc = getattr(replica, "durable_gc_state", None)
        floor = int(getattr(replica, "gc_clock_floor", 0))
        if (
            durable_gc is not None
            and self._base_floor is not None
            and floor > self._base_floor
        ):
            # The folded prefix on disk is dead weight: rewrite.
            self.compact(replica)
            return {"appended": 0, "compacted": 1}
        batch: list[dict] = []
        if journal.records == 0:
            batch.append(meta_record(self.pid))
            if durable_gc is not None:
                self._counter += 1
                batch.append(base_record(self._counter, durable_gc()))
        clock = int(replica.clock.value)
        if clock > self._clock_written:
            self._counter += 1
            batch.append(clock_record(self._counter, clock))
        for stamped in replica.updates:
            if encode_ts_key(stamped[:2]) in self.kv:
                continue
            self._counter += 1
            batch.append(entry_record(self._counter, stamped))
        if durable_gc is not None and journal.records:
            # The heard vector is a completeness claim, so it goes *last*
            # in the batch: a torn suffix must never keep a heard advance
            # while dropping the entry cells that justify it.  One small
            # record per flush keeps the base segment compaction-only
            # (at journal birth the base record carries the vector).
            heard = tuple(int(h) for h in replica.heard)
            if heard != self._heard_written:
                self._counter += 1
                batch.append(heard_record(self._counter, heard))
        if not batch:
            return {"appended": 0, "compacted": 0}
        for rec in batch:
            self._account(journal.append(rec))
        journal.commit()
        self.appends += len(batch)
        return {"appended": len(batch), "compacted": 0}

    def compact(self, replica: Any) -> None:
        """Rewrite the journal as a fresh generation of ``replica``'s
        current durable state (atomic: tmp + rename + dir fsync)."""
        journal = self._require_journal()
        records, _complete = journal_records(replica)
        stamped = journal.rewrite(records)
        self.kv.clear()
        self._counter = 0
        self._clock_written = -1
        self._base_floor = None
        self._heard_written = None
        for rec in stamped:
            self._account(rec)
        self.appends += len(stamped)
        self.compactions += 1

    # -- introspection -----------------------------------------------------------

    @property
    def digest_hex(self) -> str:
        return self._require_journal().digest_hex

    @property
    def counter(self) -> int:
        """The journal's current update counter (this generation)."""
        return self._counter

    def bytes_on_disk(self) -> int:
        if self._journal is None:
            return os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return self._journal.bytes_on_disk()

    def info(self) -> dict[str, Any]:
        """Operator-facing summary (surfaced by ``/healthz``)."""
        return {
            "path": self.path,
            "records": 0 if self._journal is None else self._journal.records,
            "counter": self._counter,
            "digest": None if self._journal is None else self.digest_hex,
            "bytes": self.bytes_on_disk(),
            "appends": self.appends,
            "compactions": self.compactions,
            "truncated_tail": self.truncated_tail,
        }

    # -- internals ---------------------------------------------------------------

    def _account(self, rec: dict) -> None:
        """Fold one (stamped) journal record into the current-state map."""
        kind = rec.get("r")
        counter = int(rec.get("c", 0))
        self._counter = max(self._counter, counter)
        if kind == "clock":
            self.kv[CLOCK_KEY] = (counter, rec)
            self._clock_written = max(self._clock_written, int(rec["value"]))
        elif kind == "base":
            self.kv[BASE_KEY] = (counter, rec)
            self._base_floor = int(rec["clock_floor"])
            self._heard_written = tuple(
                int(h) for h in decode_value(rec["heard"])
            )
        elif kind == "heard":
            self.kv[HEARD_KEY] = (counter, rec)
            self._heard_written = tuple(
                int(h) for h in decode_value(rec["h"])
            )
        elif kind == "entry":
            self.kv[str(rec["k"])] = (counter, rec)
        # meta (and unknown kinds): not a state cell.

    def _require_journal(self) -> Journal:
        if self._journal is None:
            raise RuntimeError("store is not open (call open() first)")
        return self._journal
