"""Differential test: journal on disk ≡ one-shot image ≡ the live replica.

The storage engine grows a digest-chained record sequence one flush at a
time and reads it back off disk; :func:`replica_snapshot` emits the same
records in one shot, in memory.  Restoring either must land a fresh
replica in *exactly* the state of the replica they were taken from — on
the seeded chaos workload (crashes, partitions, lossy links,
crash-recovery), not just on hand-built logs.  Any divergence here means
the journal dropped, reordered or duplicated a cell, or the two writers
disagree on a record.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto.wire import replica_snapshot, restore_replica
from repro.sim.cluster import Cluster
from repro.sim.fuzz import AdversaryFuzzer
from repro.sim.network import LossyNetwork, Network
from repro.specs import SetSpec
from repro.specs import set_spec as S
from repro.storage import JournalStore
from repro.storage.journal import FRAME_HEADER, MAGIC

SPEC = SetSpec()


def observable(replica):
    """Everything recovery must reproduce, in comparable form."""
    return {
        "state": replica.local_state(),
        "clock": replica.clock.value,
        "log": [tuple(e) for e in replica.updates],
    }


def restore_from_snapshot(replica, pid, n, *, cls=UniversalReplica, **kw):
    fresh = cls(pid, n, SPEC, **kw)
    restore_replica(fresh, replica_snapshot(replica))
    return fresh


def restore_from_journal(store_path, replica, pid, n, *,
                         cls=UniversalReplica, **kw):
    """Round-trip ``replica`` through the storage engine on real disk."""
    st = JournalStore(str(store_path), pid)
    st.open()
    st.sync(replica)
    st.close()
    st2 = JournalStore(str(store_path), pid)
    image = st2.open()
    st2.close()
    fresh = cls(pid, n, SPEC, **kw)
    restore_replica(fresh, image)
    return fresh


def chaos_cluster(seed, *, procs=4, ops=40, lossy=False):
    """One seeded adversarial run, mirroring the chaos_smoke recipe."""
    cluster = Cluster(
        procs,
        lambda p, n: UniversalReplica(p, n, SPEC, relay=True),
        seed=seed,
        fifo=lossy,
        network_cls=LossyNetwork if lossy else Network,
        network_kwargs={"drop_probability": 0.15} if lossy else {},
    )
    fuzzer = AdversaryFuzzer(
        cluster,
        seed=seed,
        crash_budget=2,
        allow_message_loss=True,
        recover_probability=0.2,
    )
    rng = np.random.default_rng(seed)
    script = []
    for _ in range(ops):
        pid = int(rng.integers(procs))
        v = int(rng.integers(6))
        script.append((pid, S.insert(v) if rng.random() < 0.6 else S.delete(v)))
    fuzzer.run_workload(script, anti_entropy_rounds=5)
    return cluster


class TestChaosDifferential:
    @pytest.mark.parametrize("seed,lossy", [(1, False), (7, True), (23, False)])
    def test_journal_restore_equals_snapshot_restore(self, tmp_path, seed,
                                                     lossy):
        cluster = chaos_cluster(seed, lossy=lossy)
        checked = 0
        for pid in cluster.alive():
            replica = cluster.replicas[pid]
            if not replica.updates:
                continue
            snap = restore_from_snapshot(replica, pid, cluster.n, relay=True)
            jour = restore_from_journal(
                tmp_path / f"s{seed}-p{pid}.journal", replica, pid,
                cluster.n, relay=True,
            )
            assert observable(jour) == observable(snap) == observable(replica), (
                f"seed {seed} p{pid}: journal and snapshot recovery disagree"
            )
            checked += 1
        assert checked > 0, f"seed {seed}: no survivor had a live log"

    @pytest.mark.parametrize("seed", [3, 11])
    def test_fsync_truncation_semantics_match(self, tmp_path, seed):
        # a crash that beat the last fsync: a journal torn inside entry
        # ``keep`` must lose exactly what fsync_point=keep says is lost
        cluster = chaos_cluster(seed)
        pid = next(p for p in cluster.alive() if cluster.replicas[p].updates)
        replica = cluster.replicas[pid]
        keep = max(1, len(replica.updates) // 2)
        modeled = UniversalReplica(pid, cluster.n, SPEC, relay=True)
        restore_replica(modeled, replica_snapshot(replica, fsync_point=keep))
        assert len(modeled.updates) == keep
        assert modeled.clock.value == replica.clock.value  # WAL clock cell

        path = tmp_path / f"torn-{seed}.journal"
        st = JournalStore(str(path), pid)
        st.open()
        st.sync(replica)
        st.close()
        raw = path.read_bytes()
        offset = len(MAGIC)
        for _ in range(2 + keep):  # meta, clock, then ``keep`` entry frames
            (length, _crc) = FRAME_HEADER.unpack_from(raw, offset)
            offset += FRAME_HEADER.size + length
        path.write_bytes(raw[:offset + FRAME_HEADER.size + 3])
        st2 = JournalStore(str(path), pid)
        image = st2.open()
        assert st2.truncated_tail
        st2.close()
        torn = UniversalReplica(pid, cluster.n, SPEC, relay=True)
        restore_replica(torn, image)
        assert observable(torn) == observable(modeled)


class TestIncrementalDifferential:
    """The engine syncs *incrementally* during the run, not once at the
    end — the accumulated journal must still equal the one-shot image."""

    def test_interleaved_syncs_accumulate_the_same_image(self, tmp_path):
        rng = np.random.default_rng(5)
        replica = UniversalReplica(0, 3, SPEC)
        st = JournalStore(str(tmp_path / "inc.journal"), 0)
        st.open()
        for i in range(60):
            v = int(rng.integers(9))
            replica.on_update(S.insert(v) if rng.random() < 0.7 else S.delete(v))
            if i % 7 == 0:
                st.sync(replica)
        st.sync(replica)
        st.close()
        st2 = JournalStore(str(tmp_path / "inc.journal"), 0)
        image = st2.open()
        st2.close()
        jour = UniversalReplica(0, 3, SPEC)
        restore_replica(jour, image)
        snap = restore_from_snapshot(replica, 0, 3)
        assert observable(jour) == observable(snap) == observable(replica)

    def test_gc_compaction_preserves_the_differential(self, tmp_path):
        def make():
            return GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=4)

        replica = make()
        st = JournalStore(str(tmp_path / "gc.journal"), 0)
        st.open()
        for i in range(24):
            replica.on_update(S.insert(i % 5))
            if i % 6 == 5:
                st.sync(replica)
            if i == 15:
                replica.collect_garbage()
        st.sync(replica)
        assert st.compactions >= 1  # the floor advance must have fired
        st.close()
        st2 = JournalStore(str(tmp_path / "gc.journal"), 0)
        image = st2.open()
        st2.close()
        jour = make()
        restore_replica(jour, image)
        snap = make()
        restore_replica(snap, replica_snapshot(replica))
        assert observable(jour) == observable(snap) == observable(replica)
        assert jour.gc_clock_floor == snap.gc_clock_floor == \
            replica.gc_clock_floor
        assert tuple(jour.heard) == tuple(snap.heard) == tuple(replica.heard)
