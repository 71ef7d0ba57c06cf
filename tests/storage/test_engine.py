"""The storage engine: incremental appends, the k/v map, compaction.

The engine's contract is the one the ISSUE's acceptance bench measures:
a flush writes the *changed* cells (flat in log length), recovery
replays the journal into the same replica state a one-shot snapshot
restore produces, and the GC floor drives compaction.
"""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto.wire import restore_replica
from repro.specs import SetSpec
from repro.specs import set_spec as S
from repro.storage import CorruptImageError, JournalStore
from repro.storage.engine import BASE_KEY, CLOCK_KEY

SPEC = SetSpec()


def replica_with(n_updates, *, pid=0, cls=UniversalReplica):
    r = cls(pid, 3, SPEC)
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

    def test_kv_map_references_update_counters(self, tmp_path):
        r = replica_with(3)
        st = open_store(tmp_path)
        st.open()
        st.sync(r)
        counters = [c for c, _ in st.kv.values()]
        assert len(set(counters)) == len(counters)  # unique references
        assert st.kv[CLOCK_KEY][1]["value"] == r.clock.value
        assert set(st.kv) == {CLOCK_KEY, "1.0", "2.0", "3.0"}
        st.close()


class TestRecovery:
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
        assert json.loads(image)["digest"] == digest == st2.digest_hex

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
        doc = json.loads(image)
        assert doc["complete"] is False
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
        assert BASE_KEY in st.kv
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
    assert {rec["r"] for _, rec in st.kv.values()} == {
        "base", "clock", "entry", "heard",
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
