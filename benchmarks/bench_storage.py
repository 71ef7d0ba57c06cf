"""STOR — storage engine: journal appends vs full-image rewrites.

The acceptance shape for the durable storage engine: a flusher that
rewrites the whole image on every dirty flush (baseline: the one-shot
``replica_snapshot`` image) writes bytes *per update* that grow linearly
with the log; the journal appends only the changed cells, so its
per-update cost is flat.  And recovery must stay practical at scale: restoring a replica from a
2·10⁴-update journal — digest chain verified end to end — in seconds, not
minutes.  The saved results hold counts only (bytes, entries); the
recovery seconds are asserted against a bound, not written down.

Both benches run the journal with ``fsync=False``: the comparison is
bytes and CPU, not disk latency (the fsync cost is identical per flush
for both strategies and would only add noise).
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core.universal import UniversalReplica
from repro.proto.wire import replica_snapshot, restore_replica
from repro.specs import SetSpec
from repro.specs import set_spec as S
from repro.storage import JournalStore

SPEC = SetSpec()

WRITE_OPS = 300
WRITE_SAMPLE = 25
RECOVERY_OPS = 20_000


def _replica(n_updates, *, n=3):
    r = UniversalReplica(0, n, SPEC, track_witness=False)
    for i in range(n_updates):
        r.on_update(S.insert(i))
    return r


def write_cost(ops: int = WRITE_OPS, sample_every: int = WRITE_SAMPLE) -> dict:
    """Bytes written per flush, journal appends vs full-image rewrites.

    Returns sampled series (update count → bytes written by that flush)
    and the first/last per-flush cost for each strategy.  The journal's
    must be flat; the snapshot rewrite's must grow linearly.
    """
    journal_series: list[tuple[int, int]] = []
    snapshot_series: list[tuple[int, int]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-storage-") as tmp:
        r = _replica(0)
        st = JournalStore(os.path.join(tmp, "r.journal"), 0, fsync=False)
        st.open()
        st.sync(r)
        for i in range(1, ops + 1):
            r.on_update(S.insert(i))
            before = st.bytes_on_disk()
            st.sync(r)
            if i % sample_every == 0:
                journal_series.append((i, st.bytes_on_disk() - before))
                # the rewrite-the-whole-image baseline
                snapshot_series.append(
                    (i, len(replica_snapshot(r).encode("utf-8")))
                )
        st.close()
    return {
        "journal_bytes_per_flush": journal_series,
        "snapshot_bytes_per_flush": snapshot_series,
        "journal_first": journal_series[0][1],
        "journal_last": journal_series[-1][1],
        "snapshot_first": snapshot_series[0][1],
        "snapshot_last": snapshot_series[-1][1],
    }


def recovery_scale(ops: int = RECOVERY_OPS) -> dict:
    """Recover a replica from a ``ops``-update journal; report the
    recovery seconds, and bytes on disk for the journal vs the one-shot
    in-memory image (same records, same chain verification)."""
    r = _replica(ops)
    with tempfile.TemporaryDirectory(prefix="repro-bench-storage-") as tmp:
        path = os.path.join(tmp, "r.journal")
        st = JournalStore(path, 0, fsync=False)
        st.open()
        st.sync(r)
        st.close()
        journal_bytes = os.path.getsize(path)

        t0 = time.perf_counter()
        st2 = JournalStore(path, 0, fsync=False)
        image = st2.open()  # scans frames, CRCs, verifies the digest chain
        fresh = UniversalReplica(0, 3, SPEC, track_witness=False)
        loaded = restore_replica(fresh, image)  # records in, replica out
        journal_s = time.perf_counter() - t0
        st2.close()

    assert loaded == ops, f"journal recovery lost entries: {loaded}/{ops}"
    assert fresh.local_state() == r.local_state(), "recovered state diverged"
    assert fresh.clock.value == r.clock.value, "recovered clock diverged"
    return {
        "ops": ops,
        "journal_bytes": journal_bytes,
        "snapshot_bytes": len(replica_snapshot(r).encode("utf-8")),
        "journal_recovery_s": journal_s,
        "digest_verified": True,  # open() / restore_replica raised otherwise
    }


def _assert_write_shape(doc: dict) -> None:
    # journal: flat (identical updates at a wider clock differ by a few
    # bytes); snapshot: the whole image, growing with every update
    assert doc["journal_last"] <= doc["journal_first"] + 16, (
        f"journal per-flush cost grew: {doc['journal_first']} -> "
        f"{doc['journal_last']}"
    )
    assert doc["snapshot_last"] > doc["snapshot_first"] * 4, (
        "snapshot rewrite cost should grow linearly with the log"
    )
    assert doc["journal_last"] * 4 < doc["snapshot_last"], (
        "journal appends should beat full-image rewrites at the tail"
    )


def test_write_cost_journal_flat_snapshot_linear(benchmark, save_result):
    doc = benchmark(write_cost)
    _assert_write_shape(doc)
    lines = ["updates  journal_B/flush  snapshot_B/flush"]
    for (i, jb), (_, sb) in zip(
        doc["journal_bytes_per_flush"], doc["snapshot_bytes_per_flush"]
    ):
        lines.append(f"{i:7d}  {jb:15d}  {sb:16d}")
    save_result("storage_write_cost", "\n".join(lines))


def test_recovery_at_scale(benchmark, save_result):
    # one large build, timed restore inside (pytest-benchmark would rerun
    # the whole thing, so one round)
    doc = benchmark.pedantic(recovery_scale, rounds=1, iterations=1)
    assert doc["digest_verified"]
    assert doc["journal_recovery_s"] < 60
    save_result(
        "storage_recovery",
        "\n".join(
            f"{k}: {v}" for k, v in doc.items() if k != "journal_recovery_s"
        ),
    )
