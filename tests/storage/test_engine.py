"""The storage engine: incremental appends, the flush mark, compaction.

The engine's contract is the one the ISSUE's acceptance bench measures:
a flush examines and writes only what *changed* (flat in log length),
recovery replays the journal into the same replica state a one-shot
snapshot restore produces — decoding and chain-checking each record
once — and the GC floor drives compaction.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto.wire import meta_record, restore_replica, verify_chain
from repro.specs import CounterSpec, SetSpec
from repro.specs import counter as C
from repro.specs import set_spec as S
from repro.storage import CorruptImageError, Journal, JournalStore

SPEC = SetSpec()


def records_on_disk(path, *, pid=0):
    """The journal's records as a second reader sees them (the writer has
    committed, so nothing is torn and the scan changes nothing)."""
    journal, records, torn = Journal.open(str(path), pid)
    journal.close()
    assert not torn
    return records


def replica_with(n_updates, *, pid=0):
    r = UniversalReplica(pid, 3, SPEC)
    for i in range(n_updates):
        r.on_update(S.insert(i))
    return r


def open_store(tmp_path, *, pid=0):
    return JournalStore(str(tmp_path / f"replica-{pid}.journal"), pid)


class TestIncrementalSync:
    def test_first_sync_writes_everything(self, tmp_path):
        r = replica_with(4)
        st = open_store(tmp_path)
        assert st.open() is None
        stats = st.sync(r)
        # meta + clock + 4 entries
        assert stats == {"appended": 6, "compacted": 0}
        st.close()

    def test_resync_appends_only_the_new_cells(self, tmp_path):
        r = replica_with(4)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        assert st.sync(r) == {"appended": 0, "compacted": 0}
        r.on_update(S.insert(99))
        assert st.sync(r) == {"appended": 2, "compacted": 0}  # clock + entry
        st.close()

    def test_append_cost_is_flat_in_log_length(self, tmp_path):
        r = replica_with(0)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        costs = []
        for i in range(50):
            before = st.bytes_on_disk()
            r.on_update(S.insert(i))
            st.sync(r)
            costs.append(st.bytes_on_disk() - before)
        # per-update write cost must not grow with the log (the old
        # full-image flusher grew linearly); identical updates at a
        # two-digit vs one-digit clock differ by a few bytes only
        assert max(costs) <= min(costs) + 16
        st.close()

    def test_cells_carry_increasing_update_counters(self, tmp_path):
        r = replica_with(3)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        meta, clock, *entries = records_on_disk(st.path)
        assert meta["r"] == "meta" and "c" not in meta
        assert clock["r"] == "clock" and clock["value"] == r.clock.value
        assert [e["k"] for e in entries] == ["1.0", "2.0", "3.0"]
        assert [rec["c"] for rec in (clock, *entries)] == [1, 2, 3, 4]
        assert st.info()["counter"] == 4
        st.close()


class TestFlushMark:
    """A flush looks at what arrived since the last one — counted in
    entries examined, never in seconds."""

    def test_in_order_stream_examines_only_the_arrivals(self, tmp_path):
        r = replica_with(500)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        assert st.examined == 500  # birth takes the whole log
        for batch in (1, 7, 0, 12):
            for i in range(batch):
                r.on_update(S.insert(1000 + i))
            appended = st.sync(r)["appended"]
            assert st.examined == batch
            assert appended == (batch + 1 if batch else 0)  # + the clock cell
        st.close()

    def test_one_late_message_examines_the_displaced_suffix_only(self, tmp_path):
        r = replica_with(0)
        for cl in range(10, 510, 10):
            r.on_message(1, (cl, 1, S.insert(cl)))
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        r.on_message(2, (255, 2, S.insert("late")))
        pos = r.known_timestamps().index((255, 2))
        assert r.unflushed_from == pos == 25
        assert st.sync(r) == {"appended": 1, "compacted": 0}  # clock unmoved
        assert 1 <= st.examined <= len(r.updates) - pos
        assert r.unflushed_from == len(r.updates)
        assert records_on_disk(st.path)[-1]["k"] == "255.2"
        st.close()
        st2 = open_store(tmp_path)
        fresh = UniversalReplica(0, 3, SPEC)
        assert restore_replica(fresh, st2.open()) == 51
        assert fresh.updates == r.updates
        st2.close()

    def test_a_batch_is_written_in_timestamp_order(self, tmp_path):
        r = replica_with(0)
        r.on_message(1, (50, 1, S.insert("a")))
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        for cl, j in [(70, 1), (20, 2), (60, 2), (10, 1)]:  # arrival order
            r.on_message(j, (cl, j, S.insert(cl)))
        st.sync(r)
        kinds = [(rec["r"], rec.get("k")) for rec in records_on_disk(st.path)[3:]]
        assert kinds == [
            ("clock", None), ("entry", "10.1"), ("entry", "20.2"),
            ("entry", "60.2"), ("entry", "70.1"),
        ]
        st.close()

    def test_restored_log_is_already_flushed(self, tmp_path):
        r = replica_with(40)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        st.close()
        st2 = open_store(tmp_path)
        fresh = UniversalReplica(0, 3, SPEC)
        restore_replica(fresh, st2.open())
        assert fresh.unflushed_from == 40
        assert st2.sync(fresh) == {"appended": 0, "compacted": 0}
        assert st2.examined == 0
        fresh.on_update(S.insert("x"))
        assert st2.sync(fresh)["appended"] == 2 and st2.examined == 1
        st2.close()

    def test_collection_between_flushes_shifts_the_mark(self, tmp_path):
        r = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        for i in range(6):
            r.on_update(S.insert(i))
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        r.on_update(S.insert(6))
        assert r.unflushed_from == 6
        r.heard[0] = 4  # only clocks 1..4 are stable
        assert r.collect_garbage() == 4
        assert r.unflushed_from == 2 and r.updates[2][0] == 7
        st.close()

    def test_compaction_resets_the_mark(self, tmp_path):
        r = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        for i in range(6):
            r.on_update(S.insert(i))
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        r.heard[0] = 4
        r.collect_garbage()
        r.heard[0] = r.clock.value
        r.on_update(S.insert(6))
        assert r.unflushed_from == 2
        assert st.sync(r)["compacted"] == 1
        assert r.unflushed_from == len(r.updates) == 3
        entries = [rec["k"] for rec in records_on_disk(st.path) if rec["r"] == "entry"]
        assert entries == ["5.0", "6.0", "7.0"]
        r.on_update(S.insert(7))
        assert st.sync(r)["appended"] == 3 and st.examined == 1  # clock, entry, heard
        st.close()


class TestRecovery:
    def test_boot_decodes_and_verifies_each_record_once(self, tmp_path, monkeypatch):
        import json

        from repro.proto import wire
        from repro.proto.core import ProtocolCore
        from repro.storage import journal

        r = replica_with(0)
        st = open_store(tmp_path)
        st.open()
        for i in range(60):
            r.on_update(S.insert(i))
            if i % 7 == 0:
                st.sync(r)
        st.sync(r)
        on_disk = st.info()["records"]
        st.close()

        calls = {"decoded": 0, "links": 0}
        real_loads, real_advance = json.loads, wire.advance_digest

        def loads(*a, **kw):
            calls["decoded"] += 1
            return real_loads(*a, **kw)

        def advance(*a):
            calls["links"] += 1
            return real_advance(*a)

        monkeypatch.setattr(json, "loads", loads)
        monkeypatch.setattr(wire, "advance_digest", advance)
        monkeypatch.setattr(journal, "advance_digest", advance)
        st2 = open_store(tmp_path)
        core = ProtocolCore(0, 3, lambda p, n: UniversalReplica(p, n, SPEC))
        core.recover(st2.open())
        assert calls == {"decoded": on_disk, "links": on_disk}
        assert core.replica.updates == r.updates
        st2.close()

    def test_recovered_image_restores_identical_state(self, tmp_path):
        r = replica_with(5)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        st.close()
        st2 = open_store(tmp_path)
        image = st2.open()
        fresh = UniversalReplica(0, 3, SPEC)
        assert restore_replica(fresh, image) == 5
        assert fresh.local_state() == r.local_state()
        assert fresh.clock.value == r.clock.value
        assert [tuple(e) for e in fresh.updates] == [tuple(e) for e in r.updates]
        st2.close()

    def test_recovered_image_carries_the_verified_digest(self, tmp_path):
        r = replica_with(3)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        digest = st.digest_hex
        st.close()
        st2 = open_store(tmp_path)
        image = st2.open()
        assert verify_chain(0, image.records) == digest == st2.digest_hex
        st2.close()

    def test_corrupt_journal_raises_through_open(self, tmp_path):
        r = replica_with(5)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        st.close()
        path = tmp_path / "replica-0.journal"
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptImageError):
            open_store(tmp_path).open()

    def test_torn_tail_marks_the_image_incomplete(self, tmp_path):
        r = replica_with(5)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        st.close()
        path = tmp_path / "replica-0.journal"
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 4)
        st2 = open_store(tmp_path)
        image = st2.open()
        assert st2.truncated_tail
        assert image.complete is False
        fresh = UniversalReplica(0, 3, SPEC)
        assert restore_replica(fresh, image) == 4  # last entry lost
        assert fresh.clock.value == r.clock.value  # the WAL clock cell held
        st2.close()


class TestGcCompaction:
    def gc_replica(self, n_updates):
        # n=1 so the replica's own deliveries certify completeness and
        # collect_garbage can advance the floor without peers
        r = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        for i in range(n_updates):
            r.on_update(S.insert(i))
        return r

    def test_base_record_written_at_birth(self, tmp_path):
        r = self.gc_replica(3)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        kinds = [rec["r"] for rec in records_on_disk(st.path)]
        assert kinds == ["meta", "base", "clock", "entry", "entry", "entry"]
        st.close()

    def test_floor_advance_triggers_compaction(self, tmp_path):
        r = self.gc_replica(6)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        bloated = st.bytes_on_disk()
        collected = r.collect_garbage()
        assert collected > 0
        stats = st.sync(r)
        assert stats["compacted"] == 1
        assert st.compactions == 1
        assert st.bytes_on_disk() < bloated
        st.close()

    def test_compaction_is_amortized_against_what_was_appended(self, tmp_path):
        # The floor moves on every flush (as heartbeats move it on a mesh):
        # a rewrite waits until the journal has doubled since the last
        # one, so rewritten bytes stay under appended bytes and the file
        # under twice its compacted size plus one batch.
        r = self.gc_replica(0)
        st = open_store(tmp_path)
        st.open()
        compacted = batch = 0
        for i in range(400):
            r.on_update(S.insert(i))
            if i % 4 == 3:
                r.collect_garbage()
                before = st.bytes_on_disk()
                stats = st.sync(r)
                if stats["compacted"]:
                    compacted = st.bytes_on_disk()
                else:
                    batch = max(batch, st.bytes_on_disk() - before)
                if st.compactions:
                    assert st.bytes_on_disk() <= 2 * compacted + batch
        assert 3 <= st.compactions <= 50  # not one per flush (100)
        assert st.bytes_rewritten <= st.bytes_appended
        st.close()

    def test_a_deferred_rewrite_loses_nothing(self, tmp_path):
        # Between rewrites the journal must stay a superset of the state:
        # a journaled replica folds only what a flush has written, so a
        # boot from the file at any point restores everything.
        r = self.gc_replica(0)
        st = open_store(tmp_path)
        st.open()
        rewrites = 0
        for i in range(300):
            r.on_update(S.insert(i))
            if i % 3 == 2:
                r.collect_garbage()
                assert all(cl > r.gc_clock_floor for cl, _, _ in
                           r.updates[r.unflushed_from:])
            if i % 5 == 4:
                st.sync(r)
            if i % 50 == 49:
                rewrites += st.compactions
                st.close()
                st = open_store(tmp_path)
                fresh = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
                restore_replica(fresh, st.open())
                assert fresh.local_state() == r.local_state()
        assert rewrites >= 6 and r.gc_clock_floor > 0
        st.close()

    def test_an_installed_base_is_rewritten_at_once(self, tmp_path):
        # A state transfer's base holds updates no record on disk has, so
        # it cannot wait for the journal to double.
        r = self.gc_replica(3)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        r.collect_garbage()
        assert st.sync(r)["compacted"] == 1  # a first rewrite: now it waits
        r.on_update(S.insert(3))
        assert st.sync(r)["compacted"] == 0
        base = frozenset(range(4)) | {"transferred"}
        assert r.install_gc_state(base=base, clock_floor=10)
        assert st.sync(r)["compacted"] == 1
        st.close()
        fresh = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        restore_replica(fresh, open_store(tmp_path).open())
        assert fresh.local_state() == base and fresh.gc_clock_floor == 10

    def test_recovery_after_compaction_restores_state_and_floor(self, tmp_path):
        r = self.gc_replica(6)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        r.collect_garbage()
        st.sync(r)
        st.close()
        st2 = open_store(tmp_path)
        image = st2.open()
        fresh = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        restore_replica(fresh, image)
        assert fresh.local_state() == r.local_state()
        assert fresh.gc_clock_floor == r.gc_clock_floor
        assert fresh.clock.value == r.clock.value
        st2.close()

    def test_a_birth_torn_after_its_meta_frame_is_born_again(self, tmp_path):
        # A power cut inside the one-commit birth batch can leave only the
        # meta frame: open() then boots fresh, and the next sync must still
        # write the rest of the birth batch — without the base record the
        # journal would never compact, and every entry collected before
        # the flush would be lost.
        st = open_store(tmp_path)
        journal, _records, _torn = Journal.open(st.path, 0)
        journal.append(meta_record(0))
        journal.commit()
        journal.close()
        assert st.open() is None
        r = GarbageCollectedReplica(0, 1, SPEC, gc_interval=4)
        for i in range(50):
            r.on_update(S.insert(i))
        assert r.gc_clock_floor > 0
        st.sync(r)
        kinds = [rec["r"] for rec in records_on_disk(st.path)]
        assert kinds[:3] == ["meta", "base", "clock"]
        assert kinds.count("meta") == 1
        st.close()
        st2 = open_store(tmp_path)
        fresh = GarbageCollectedReplica(0, 1, SPEC, gc_interval=4)
        restore_replica(fresh, st2.open())
        assert fresh.local_state() == r.local_state()
        assert len(fresh.local_state()) == 50
        floor = fresh.gc_clock_floor
        for i in range(50, 58):
            fresh.on_update(S.insert(i))
        assert fresh.gc_clock_floor > floor
        assert st2.sync(fresh)["compacted"] == 1
        st2.close()


def test_a_plain_replica_journals_no_folded_state(tmp_path):
    """A replica that keeps no base writes neither a base nor a heard
    record — at birth, on incremental syncs, or after a truncated
    restore — and certifies nothing once restored."""
    r = replica_with(4)
    st = open_store(tmp_path)
    st.open()
    st.sync(r)
    r.on_message(1, (2, 1, S.insert("late")))
    r.on_update(S.insert(9))
    st.sync(r)
    st.close()
    path = tmp_path / "replica-0.journal"
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 4)
    st2 = open_store(tmp_path)
    image = st2.open()
    assert image.complete is False
    fresh = UniversalReplica(0, 3, SPEC)
    restore_replica(fresh, image)
    assert fresh._sync_digest().floors == (0, 0, 0)
    fresh.on_update(S.insert(10))
    st2.sync(fresh)
    st2.close()
    kinds = {rec["r"] for rec in records_on_disk(path)}
    assert kinds == {"meta", "clock", "entry"}


def test_the_replica_class_is_not_part_of_the_image(tmp_path):
    """How a replica answers queries — its replay — is not written down: the same
    schedule writes the same journal bytes under every replay, and each
    boots every other's journal to the same log, clock and state — a node
    switching replay needs no migration, a roll-back reads what the new
    node wrote.  (The counter takes all four replays.)"""
    spec = CounterSpec()
    replays = ("naive", "checkpoint", "undo", "fold")
    written = {}
    for replay in replays:
        r = UniversalReplica(0, 3, spec, replay=replay)
        for i in range(40):
            r.on_update(C.inc(i))
        st = JournalStore(str(tmp_path / f"{replay}.journal"), 0)
        st.open()
        st.sync(r)
        r.on_query("read")
        r.on_message(1, (7, 1, C.dec(3)))  # late: lowers the flush mark
        r.on_update(C.inc(100))
        st.sync(r)
        st.close()
        written[replay] = r
    images = {(tmp_path / f"{replay}.journal").read_bytes() for replay in replays}
    assert len(images) == 1
    for replay in replays:
        st = JournalStore(str(tmp_path / f"{replays[0]}.journal"), 0)
        fresh = UniversalReplica(0, 3, spec, replay=replay)
        assert restore_replica(fresh, st.open()) == 42
        st.close()
        for r in written.values():
            assert fresh.updates == r.updates
            assert fresh.clock.value == r.clock.value
            assert fresh._sync_digest() == r._sync_digest()
            assert fresh.local_state() == r.local_state()
        assert fresh.on_query("read") == fresh.local_state()


def test_journal_file_bytes_are_golden(tmp_path):
    """Every record kind the engine appends — meta, base, clock, entry,
    heard, then a compaction rewrite — lands on disk as the exact bytes
    the pre-``proto.wire``-constructors engine wrote (digests computed at
    the parent commit), so ``journal_bytes_per_update`` cannot have moved."""
    import hashlib

    path = tmp_path / "golden.journal"
    r = GarbageCollectedReplica(0, 2, SPEC, checkpoint_interval=2)
    st = JournalStore(str(path), 0)
    st.open()
    for i in range(4):
        r.on_update(S.insert(i))
    st.sync(r)  # birth: meta, base, clock, entries
    r.on_message(1, (7, 1, S.insert("x")))
    r.on_update(S.delete(0))
    st.sync(r)  # incremental: clock, entries, heard
    assert {rec["r"] for rec in records_on_disk(path)} == {
        "meta", "base", "clock", "entry", "heard",
    }
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "fc381425999a59c2e519efed6ec979468b69202b46c78a0bebb9125e3008cba6"
    )
    r.collect_garbage()
    assert st.sync(r)["compacted"] == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3a4ea42f6eb17b8fd45f13b67339cc7d659e8aadd3c10916784a8b029f433a11"
    )
    st.close()
