"""Crash consistency of the networked backend's storage engine.

The journal/engine unit tests (``tests/storage``) pin the byte-level
contract; here the same fates — torn tail, bit rot, interrupted
compaction, torn creation — hit a *running node*: recovery must feed the
survivors' state back through anti-entropy, corruption must surface as a
typed error (or a quarantine + empty rejoin), and ``/healthz`` must tell
the operator which of those happened.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.universal import UniversalReplica
from repro.net.harness import LocalCluster
from repro.specs.set_spec import SetSpec, insert
from repro.storage import CorruptImageError

SPEC = SetSpec()


def make_cluster(tmp_path, *, http=False, n=3, **node_kwargs):
    return LocalCluster(
        n,
        lambda pid, k: UniversalReplica(pid, k, SPEC),
        data_dir=str(tmp_path),
        sync_interval=0.05,
        http=http,
        node_kwargs=node_kwargs or None,
    )


async def seed_and_flush(cluster, values):
    """Spread ``values`` across the cluster and let every flusher write."""
    for i, v in enumerate(values):
        cluster.submit(i % cluster.n, insert(v))
    await cluster.settle(timeout=10)
    await asyncio.sleep(0.2)  # dirty-flag flush interval


def journal_of(tmp_path, pid):
    return str(tmp_path / f"replica-{pid}.journal")


def test_torn_journal_tail_recovers_prefix_and_rejoins(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await seed_and_flush(cluster, range(6))
            cluster.kill(2)
            # a crash that beat the last fsync: chop mid-record
            path = journal_of(tmp_path, 2)
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) - 5)
            node = await cluster.restart(2)
            await cluster.settle(timeout=10)
            # the torn record was truncated, the survivors repaired the gap
            assert node.storage_info()["journal"]["truncated_tail"]
            assert cluster.states() == {p: set(range(6)) for p in range(3)}
            assert node.storage_info()["corrupt_image"] is None
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_corrupt_journal_raises_typed_error_at_boot(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await seed_and_flush(cluster, range(6))
            cluster.kill(2)
            path = journal_of(tmp_path, 2)
            raw = bytearray(open(path, "rb").read())
            raw[20] ^= 0xFF  # early frame, fsynced long ago — not a tear
            open(path, "wb").write(bytes(raw))
            with pytest.raises(CorruptImageError) as info:
                await cluster.restart(2)
            assert info.value.path == path
            cluster.kill(2)  # discard the half-booted node
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_quarantine_mode_sets_file_aside_and_rejoins_empty(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path, http=True, on_corrupt="quarantine")
        await cluster.start()
        client = None
        try:
            await seed_and_flush(cluster, range(6))
            cluster.kill(2)
            path = journal_of(tmp_path, 2)
            raw = bytearray(open(path, "rb").read())
            raw[20] ^= 0xFF
            open(path, "wb").write(bytes(raw))
            node = await cluster.restart(2)
            # the evidence was set aside, a fresh journal took its place
            assert os.path.exists(path + ".corrupt")
            assert node.corrupt_image is not None
            await cluster.settle(timeout=10)
            assert cluster.states() == {p: set(range(6)) for p in range(3)}
            # the operator can see what happened
            client = cluster.client(2)
            status, doc = await client.request("GET", "/healthz")
            assert status == 200
            storage = doc["storage"]
            assert storage["corrupt_image"]["path"] == path
            assert "CRC" in storage["corrupt_image"]["reason"]
            assert storage["backend"] == "journal"
        finally:
            if client is not None:
                await client.close()
            await cluster.stop()

    asyncio.run(scenario())


def test_stray_json_image_is_ignored(tmp_path):
    # a data dir from before the journal: node 0 has only a
    # replica-0.json.  That format is no longer read (docs/storage.md):
    # the node boots empty and rejoins by anti-entropy.
    stray = tmp_path / "replica-0.json"
    stray.write_text(
        '{"format": "repro-replica-log-v2", "pid": 0, "clock": 3, '
        '"complete": true, "entries": []}',
        encoding="utf-8",
    )
    before = stray.read_bytes()

    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            assert node.core.replica.clock.value == 0  # nothing restored
            assert node.corrupt_image is None
            cluster.submit(1, insert(10))
            await cluster.settle(timeout=10)
            assert cluster.states() == {p: {10} for p in range(3)}
            assert node.storage_info()["backend"] == "journal"
            assert os.path.exists(journal_of(tmp_path, 0))
            assert stray.read_bytes() == before  # left untouched
        finally:
            await cluster.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("prefix", [b"", b"RJ"], ids=["0B", "2B"])
def test_torn_journal_creation_boots_clean(tmp_path, prefix):
    # a power cut between creating the journal and its magic's fsync must
    # not brick the node, even under the default on_corrupt="raise"
    with open(journal_of(tmp_path, 1), "wb") as fh:
        fh.write(prefix)

    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            node = cluster.nodes[1]
            assert node.storage_info()["journal"]["truncated_tail"]
            assert node.corrupt_image is None
            await seed_and_flush(cluster, range(3))
            assert cluster.states() == {p: set(range(3)) for p in range(3)}
            cluster.kill(1)
            node = await cluster.restart(1)
            await cluster.settle(timeout=10)
            assert not node.storage_info()["journal"]["truncated_tail"]
            assert cluster.states()[1] == set(range(3))
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_stale_compaction_tmp_is_discarded_at_boot(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await seed_and_flush(cluster, range(4))
            cluster.kill(1)
            # crash between writing journal.tmp and the rename
            tmp = journal_of(tmp_path, 1) + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(b"half-written next generation")
            await cluster.restart(1)
            await cluster.settle(timeout=10)
            assert not os.path.exists(tmp)
            assert cluster.states() == {p: set(range(4)) for p in range(3)}
        finally:
            await cluster.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("fate", ["foreign_pid", "reordered_frames"])
def test_spliced_journal_raises_typed_error_at_boot(tmp_path, fate):
    # every frame's CRC is fine; only the digest chain — checked once,
    # by the journal scan — can tell
    from repro.storage.journal import FRAME_HEADER, MAGIC

    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await seed_and_flush(cluster, range(6))
            cluster.kill(1)
            path = journal_of(tmp_path, 1)
            if fate == "foreign_pid":
                with open(journal_of(tmp_path, 0), "rb") as fh:
                    raw = fh.read()  # node 0's flusher may append meanwhile
            else:
                raw = open(path, "rb").read()
                frames, offset = [], len(MAGIC)
                while offset < len(raw):
                    (length, _crc) = FRAME_HEADER.unpack_from(raw, offset)
                    end = offset + FRAME_HEADER.size + length
                    frames.append(raw[offset:end])
                    offset = end
                frames[-1], frames[-2] = frames[-2], frames[-1]
                raw = MAGIC + b"".join(frames)
            with open(path, "wb") as fh:
                fh.write(raw)
            with pytest.raises(CorruptImageError, match="digest chain"):
                await cluster.restart(1)
            assert cluster.nodes[1].corrupt_image is not None
            cluster.kill(1)  # discard the half-booted node
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_flush_before_start_still_creates_the_journal(tmp_path):
    # stop() on a node that never booted: nothing was opened, the flush
    # creates the journal on demand and writes the whole log
    from repro.net.node import ReplicaNode

    async def scenario():
        node = ReplicaNode(
            0, 1, lambda pid, k: UniversalReplica(pid, k, SPEC),
            data_dir=str(tmp_path / "fresh"),
        )
        for v in range(3):
            node.submit(insert(v))
        await node.stop()
        again = ReplicaNode(
            0, 1, lambda pid, k: UniversalReplica(pid, k, SPEC),
            data_dir=str(tmp_path / "fresh"),
        )
        await again.start()
        try:
            assert again.local_state() == {0, 1, 2}
            assert again.storage_info()["journal"]["records"] == 5
        finally:
            await again.stop()

    asyncio.run(scenario())


def test_node_boot_verifies_each_record_once(tmp_path, monkeypatch):
    # the boot path end to end (journal scan -> engine -> core.recover):
    # one JSON decode and one chain link per record, no image text
    import json

    from repro.proto import wire
    from repro.storage import journal

    async def scenario():
        cluster = make_cluster(tmp_path, n=1)
        await cluster.start()
        for v in range(40):
            cluster.submit(0, insert(v))
            if v % 9 == 0:
                await asyncio.sleep(0.06)  # several flushes, several batches
        await cluster.stop()
        reader, records, _torn = journal.Journal.open(journal_of(tmp_path, 0), 0)
        reader.close()

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
        again = make_cluster(tmp_path, n=1)
        await again.start()  # no peers, no HTTP: nothing else decodes JSON
        counted = dict(calls)
        try:
            assert counted == {"decoded": len(records), "links": len(records)}
            assert again.states() == {0: set(range(40))}
        finally:
            await again.stop()

    asyncio.run(scenario())


def test_flushes_append_instead_of_rewriting(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await seed_and_flush(cluster, range(3))
            grown = [os.path.getsize(journal_of(tmp_path, 0))]
            for v in (100, 101, 102):
                cluster.submit(0, insert(v))
                await cluster.settle(timeout=10)
                await asyncio.sleep(0.2)
                grown.append(os.path.getsize(journal_of(tmp_path, 0)))
            # strictly growing (appends), and each step is a few cells,
            # not a whole-image rewrite
            steps = [b - a for a, b in zip(grown, grown[1:])]
            assert all(s > 0 for s in steps)
            assert max(steps) < grown[0]
            info = cluster.nodes[0].storage_info()["journal"]
            assert info["compactions"] == 0
            assert info["records"] == info["appends"]
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_healthz_reports_journal_storage(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path, http=True)
        await cluster.start()
        client = None
        try:
            await seed_and_flush(cluster, range(3))
            client = cluster.client(0)
            status, doc = await client.request("GET", "/healthz")
            assert status == 200
            storage = doc["storage"]
            assert storage["backend"] == "journal"
            assert storage["corrupt_image"] is None
            assert storage["journal"]["records"] > 0
            assert storage["journal"]["digest"]
            # the reported digest is the journal's real rolling digest
            assert storage["journal"]["digest"] == \
                cluster.nodes[0]._store.digest_hex
        finally:
            if client is not None:
                await client.close()
            await cluster.stop()

    asyncio.run(scenario())
