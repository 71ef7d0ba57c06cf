"""Crash-consistency smoke: drive the journal through its fates, fast.

CI entry point (``python -m repro.storage.smoke``): in a throwaway
directory, write a journal through the engine, then inflict each crash
fate — torn tail, a birth torn right after its meta frame, mid-file bit
rot, interrupted compaction — and check
the recovery contract end to end (the journal scan's CRC and digest-chain
checks, then :func:`repro.proto.wire.restore_replica` on the records it
returns).  Prints one ``PASS`` line per scenario; any failure is a
traceback and a non-zero exit.

The pytest suites (``tests/storage``, ``tests/net``) cover the same
ground exhaustively; this module exists so the chaos CI job — which runs
the fuzzers, not the unit suites — also exercises the storage engine's
recovery path on every push.
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto.wire import meta_record, restore_replica
from repro.specs import SetSpec
from repro.specs import set_spec as S
from repro.storage import CorruptImageError, Journal, JournalStore

SPEC = SetSpec()


def _replica(n_updates: int = 16) -> UniversalReplica:
    r = UniversalReplica(0, 3, SPEC)
    for i in range(n_updates):
        r.on_update(S.insert(i))
    return r


def _write_store(path: str, replica) -> None:
    st = JournalStore(path, 0)
    st.open()
    st.sync(replica)
    st.close()


def _recover(path: str, *, n: int = 3, cls=UniversalReplica, **kw):
    st = JournalStore(path, 0)
    image = st.open()
    fresh = cls(0, n, SPEC, **kw)
    if image is not None:
        restore_replica(fresh, image)
    return fresh, st


def scenario_clean_recovery(tmp: str) -> None:
    path = os.path.join(tmp, "clean.journal")
    replica = _replica()
    _write_store(path, replica)
    fresh, st = _recover(path)
    assert fresh.local_state() == replica.local_state(), "state diverged"
    assert fresh.clock.value == replica.clock.value, "clock diverged"
    assert not st.truncated_tail
    st.close()


def scenario_torn_tail(tmp: str) -> None:
    path = os.path.join(tmp, "torn.journal")
    replica = _replica()
    _write_store(path, replica)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 7)
    fresh, st = _recover(path)
    assert st.truncated_tail, "torn tail went undetected"
    assert len(fresh.updates) == len(replica.updates) - 1, "wrong prefix"
    assert fresh.clock.value == replica.clock.value, "WAL clock cell lost"
    st.close()


def scenario_torn_birth(tmp: str) -> None:
    # The birth batch is one commit; a power cut may keep only its meta
    # frame.  The node boots fresh on it and must journal everything it
    # does from then on, its garbage-collected prefix included.
    path = os.path.join(tmp, "birth.journal")
    journal, _records, _torn = Journal.open(path, 0)
    journal.append(meta_record(0))
    journal.commit()
    journal.close()
    restarted = GarbageCollectedReplica(0, 1, SPEC, gc_interval=4)
    for i in range(50):
        restarted.on_update(S.insert(i))
    _write_store(path, restarted)
    fresh, st = _recover(path, n=1, cls=GarbageCollectedReplica, gc_interval=4)
    assert fresh.local_state() == restarted.local_state(), "updates lost"
    assert fresh.gc_clock_floor == restarted.gc_clock_floor > 0, "floor lost"
    st.close()


def scenario_bit_rot(tmp: str) -> None:
    path = os.path.join(tmp, "rot.journal")
    _write_store(path, _replica())
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    try:
        JournalStore(path, 0).open()
    except CorruptImageError as exc:
        assert exc.path == path and exc.offset > 0
    else:
        raise AssertionError("mid-file bit rot was not detected")


def scenario_interrupted_compaction(tmp: str) -> None:
    path = os.path.join(tmp, "compact.journal")
    replica = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
    for i in range(10):
        replica.on_update(S.insert(i))
    _write_store(path, replica)
    # crash between writing the new generation and the rename
    with open(path + ".tmp", "wb") as fh:
        fh.write(b"half-written generation")
    fresh, st = _recover(path, cls=GarbageCollectedReplica,
                         checkpoint_interval=2)
    assert not os.path.exists(path + ".tmp"), "stale tmp survived"
    assert fresh.local_state() == replica.local_state(), "state diverged"
    st.close()


def scenario_compaction_round_trip(tmp: str) -> None:
    path = os.path.join(tmp, "gc.journal")
    replica = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
    st = JournalStore(path, 0)
    st.open()
    for i in range(12):
        replica.on_update(S.insert(i))
        st.sync(replica)
    before = st.bytes_on_disk()
    replica.collect_garbage()
    stats = st.sync(replica)
    assert stats["compacted"] == 1, "floor advance did not compact"
    assert st.bytes_on_disk() < before, "compaction did not shrink the file"
    st.close()
    fresh, st2 = _recover(path, cls=GarbageCollectedReplica,
                          checkpoint_interval=2)
    assert fresh.local_state() == replica.local_state(), "state diverged"
    assert fresh.gc_clock_floor == replica.gc_clock_floor, "floor lost"
    st2.close()


SCENARIOS = [
    scenario_clean_recovery,
    scenario_torn_tail,
    scenario_torn_birth,
    scenario_bit_rot,
    scenario_interrupted_compaction,
    scenario_compaction_round_trip,
]


def main() -> int:
    failures = 0
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory(prefix="repro-storage-smoke-") as tmp:
            try:
                scenario(tmp)
            except Exception:  # pragma: no cover - only on regression
                failures += 1
                print(f"FAIL {scenario.__name__}")
                import traceback

                traceback.print_exc()
            else:
                print(f"PASS {scenario.__name__}")
    if failures:
        print(f"{failures} of {len(SCENARIOS)} storage smoke scenarios failed")
        return 1
    print(f"all {len(SCENARIOS)} storage smoke scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
