"""The storage engine: a journal of state cells, flushed incrementally.

Modeled on ``statejournal`` (SNIPPETS.md): the durable truth is the
append-only journal (:mod:`repro.storage.journal`), a sequence of *cells*
stamped with the journal's monotone update counter, of which the latest
per key is the current state.  The cells are exactly the
:mod:`repro.proto.wire` v3 record vocabulary:

* ``"clock"`` — the write-ahead Lamport clock cell.  Re-appended (cheap:
  one small record) whenever the clock advanced, *before* the entries of
  the same batch, so a recovering process never reuses a timestamp even
  when the batch's entry tail is torn off.
* ``"base"`` — the compacted segment (base state, clock floor, fold
  frontier, heard vector).  Written at journal birth for a replica that
  keeps a base (``accepts_state``) and rewritten by compaction.
* ``"heard"`` — the heard vector on its own, re-appended (one small
  record) whenever it advanced between compactions of a journal that
  holds a base, so a recovered replica's completeness claims are as
  fresh as its last flush, not its last compaction.
* ``"<clock>.<pid>"`` — one cell per logged update, keyed by its Lamport
  timestamp.  The journal's update counter refines the very total order
  the paper's Algorithm 1 replays in, which is why replaying the journal
  start-to-end and restoring a one-shot snapshot land in the same state.

Writes are *incremental* in bytes and in work: :meth:`JournalStore.sync`
looks only at the log suffix from the replica's flush mark
(``UniversalReplica.unflushed_from`` — what arrived, or was displaced by
a late arrival, since the last flush) and appends the cells that
changed.  In memory the engine keeps the singleton cells' latest values
and the *timestamps* of the journaled entries, not the records.  Reads
are one pass: :meth:`JournalStore.open` returns the records the journal
scan CRC-checked and chain-verified as the
:class:`~repro.proto.wire.JournalImage` that
:func:`~repro.proto.wire.restore_replica` restores from.

Compaction is keyed to the replica's floor and amortized: once
``replica.gc_clock_floor`` passes what the on-disk base record covers,
the folded entry cells are dead weight, and once the journal has also
doubled in bytes since this store last rewrote it (at once, the first
time) it is atomically rewritten (tmp + rename + dir fsync) to a fresh
generation holding just the new base and the surviving tail.  A rewrite
costs about as much as appending what it writes, so the doubling keeps
the bytes rewritten at the bytes appended and the journal under twice
its compacted size plus one batch.  Deferring one is safe because the
journal stays a superset of the state: a journaled replica folds only
entries below its flush mark (``replica.journaled``), and a base
installed from outside (``replica.installed_floor`` above the on-disk
base) is rewritten at once; the ``heard`` records keep the completeness
claims fresh.  Whether a journal compacts and carries ``heard`` records
is read off what it holds (a base record), never off the replica's class.
"""

from __future__ import annotations

import os
from typing import Any

from repro.proto.wire import (
    JournalImage,
    clock_record,
    decode_ts_key,
    decode_value,
    entry_record,
    heard_record,
    journal_records,
)
from repro.storage.journal import Journal


class JournalStore:
    """One replica's durable storage engine.

    Lifecycle: :meth:`open` once (recovers whatever the journal holds and
    returns it as a verified :class:`~repro.proto.wire.JournalImage` for
    ``ProtocolCore.recover``), then :meth:`sync` on every dirty-flag
    flush, :meth:`close` on shutdown.  One store journals one replica:
    :meth:`sync` consumes the replica's flush mark.
    """

    def __init__(self, path: str, pid: int, *, fsync: bool = True) -> None:
        self.path = str(path)
        self.pid = int(pid)
        self.fsync = fsync
        self._journal: Journal | None = None
        #: timestamps of the entry cells this generation holds — what
        #: tells a late arrival from the journaled entries it displaced.
        self._journaled: set[tuple[int, int]] = set()
        self._counter = 0
        self._clock_written = -1
        self._base_floor: int | None = None
        self._heard_written: tuple[int, ...] | None = None
        #: whether the last :meth:`open` truncated a torn tail.
        self.truncated_tail = False
        self.compactions = 0
        self.appends = 0
        #: bytes on disk right after this store last rewrote the journal
        #: (0 until it has): a floor advance compacts once the journal
        #: has doubled past it.
        self._whole_bytes = 0
        #: bytes the write path appended and bytes compactions rewrote.
        self.bytes_appended = 0
        self.bytes_rewritten = 0
        #: log entries the last :meth:`sync` looked at (the work counter
        #: the flat-flush tests pin: new arrivals, not log length).
        self.examined = 0

    # -- lifecycle ---------------------------------------------------------------

    def open(self) -> JournalImage | None:
        """Open/create the journal; recover its contents.

        Returns the surviving records — CRC-checked and chain-verified
        once, on the raw bytes, by the journal's scan — as the image
        ``ProtocolCore.recover`` restores from, or ``None`` when the
        journal is fresh/empty.  Raises :class:`CorruptImageError` on
        mid-file damage.
        """
        journal, records, torn = Journal.open(self.path, self.pid, fsync=self.fsync)
        self._journal = journal
        self.truncated_tail = torn
        self._account(records)
        if len(records) <= 1:  # nothing but (at most) the meta record
            return None
        return JournalImage(self.pid, records, not torn)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- the write path ----------------------------------------------------------

    def sync(self, replica: Any) -> dict[str, int]:
        """Append whatever changed since the last sync; maybe compact.

        Only the log suffix from the replica's flush mark is examined, so
        the work is proportional to what arrived, not to the log.  The
        append order is the write-ahead discipline: base (only at journal
        birth), then the clock cell, then new entry cells in timestamp
        order — so any torn suffix of a batch loses entries, never the
        clock that stamped them.  A journal holding only its meta frame
        (a birth batch torn right after it) gets the rest of the birth
        batch.  Returns ``{"appended": ..., "compacted": 0|1}``.
        """
        journal = self._require_journal()
        replica.journaled = True  # collections wait for the flush mark
        base_floor = self._base_floor
        if base_floor is not None and replica.gc_clock_floor > base_floor and (
            # an installed base holds updates no record on disk has
            replica.installed_floor > base_floor
            # or the dead weight on disk is as much as a rewrite costs
            or journal.bytes_on_disk() >= 2 * self._whole_bytes
        ):
            self.compact(replica)
            return {"appended": 0, "compacted": 1}
        if journal.records <= 1:
            # A newborn journal holds nothing of this replica, whatever
            # another store wrote of it before: its whole durable state,
            # minus the meta frame a torn birth left behind.
            batch, _complete = journal_records(replica)
            del batch[:journal.records]
            self.examined = len(replica.updates)
        else:
            batch = []
            clock = int(replica.clock.value)
            if clock > self._clock_written:
                self._counter += 1
                batch.append(clock_record(self._counter, clock))
            suffix = replica.updates[replica.unflushed_from:]
            self.examined = len(suffix)
            journaled = self._journaled
            for stamped in suffix:
                if stamped[:2] in journaled:
                    continue  # displaced by a late arrival, not new
                self._counter += 1
                batch.append(entry_record(self._counter, stamped))
            heard = tuple(int(h) for h in replica.heard)
            if self._heard_written not in (None, heard):
                # A completeness claim goes *last* in the batch: a torn
                # suffix must never keep a heard advance while dropping
                # the entry cells that justify it.  One small record per
                # flush keeps the base segment compaction-only (at birth
                # the base record carries the vector).
                self._counter += 1
                batch.append(heard_record(self._counter, heard))
        if batch:
            before = journal.bytes_on_disk()
            self._account([journal.append(rec) for rec in batch])
            journal.commit()
            self.appends += len(batch)
            self.bytes_appended += journal.bytes_on_disk() - before
        replica.mark_flushed()
        return {"appended": len(batch), "compacted": 0}

    def compact(self, replica: Any) -> None:
        """Rewrite the journal as a fresh generation of ``replica``'s
        current durable state (atomic: tmp + rename + dir fsync)."""
        journal = self._require_journal()
        records, _complete = journal_records(replica)
        stamped = journal.rewrite(records)
        self._journaled.clear()
        self._counter = 0
        self._clock_written = -1
        self._base_floor = None
        self._heard_written = None
        self._account(stamped)
        replica.mark_flushed()
        self.appends += len(stamped)
        self.compactions += 1
        self._whole_bytes = journal.bytes_on_disk()
        self.bytes_rewritten += self._whole_bytes

    # -- introspection -----------------------------------------------------------

    @property
    def digest_hex(self) -> str:
        return self._require_journal().digest_hex

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
            "bytes_appended": self.bytes_appended,
            "bytes_rewritten": self.bytes_rewritten,
            "truncated_tail": self.truncated_tail,
        }

    # -- internals ---------------------------------------------------------------

    def _account(self, records: list[dict]) -> None:
        """Note what (stamped) journal records say is on disk: the
        singleton cells' latest values and which entries are journaled."""
        journaled = self._journaled
        for rec in records:
            kind = rec.get("r")
            if kind == "entry":
                journaled.add(decode_ts_key(rec["k"]))
            elif kind == "clock":
                self._clock_written = max(self._clock_written, int(rec["value"]))
            elif kind == "base":
                self._base_floor = int(rec["clock_floor"])
                self._heard_written = tuple(
                    int(h) for h in decode_value(rec["heard"])
                )
            elif kind == "heard":
                self._heard_written = tuple(
                    int(h) for h in decode_value(rec["h"])
                )
            # meta (and unknown kinds): not a state cell.
        if records:
            # counters are monotone within a generation; meta carries none
            self._counter = max(self._counter, int(records[-1].get("c", 0)))

    def _require_journal(self) -> Journal:
        if self._journal is None:
            raise RuntimeError("store is not open (call open() first)")
        return self._journal
