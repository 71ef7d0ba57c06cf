"""The binary journal's crash-consistency contract.

The journal is the physical ``fsync_point``: everything before the last
committed frame survives any crash, a torn tail is truncated (never
fatal), and damage to *fsynced* bytes — which no crash can cause — is a
typed, located error.  These tests drive the file through every one of
those fates byte by byte.
"""

from __future__ import annotations

import os
import zlib

import pytest

import repro.storage.journal as journal_mod
from repro.proto.wire import genesis_digest, verify_chain
from repro.storage import CorruptImageError, Journal
from repro.storage.journal import FRAME_HEADER, MAGIC


def make_journal(path, records, *, pid=0):
    j, existing, torn = Journal.open(str(path), pid)
    assert existing == [] and not torn
    for rec in records:
        j.append(rec)
    j.commit()
    j.close()


RECORDS = [
    {"r": "meta", "format": "repro-replica-journal-v3", "pid": 0},
    {"r": "clock", "c": 1, "value": 3},
    {"r": "entry", "c": 2, "k": "1.0", "e": "a"},
    {"r": "entry", "c": 3, "k": "2.0", "e": "b"},
    {"r": "entry", "c": 4, "k": "3.0", "e": "c"},
]


class TestAppendAndReopen:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        j, records, torn = Journal.open(str(path), 0)
        assert not torn
        assert [dict(r, d=None) for r in records] == [
            dict(r, d=None) for r in RECORDS
        ]
        j.close()

    def test_records_carry_the_digest_chain(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        j, records, _ = Journal.open(str(path), 0)
        # verify_chain replays from genesis and must land on the
        # journal's own rolling digest
        assert verify_chain(0, records) == j.digest_hex
        assert j.digest_hex != genesis_digest(0).hex()
        j.close()

    def test_append_after_reopen_continues_the_chain(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS[:3])
        j, _, _ = Journal.open(str(path), 0)
        for rec in RECORDS[3:]:
            j.append(rec)
        j.commit()
        j.close()
        j2, records, torn = Journal.open(str(path), 0)
        assert not torn and len(records) == len(RECORDS)
        j2.close()

    def test_each_record_is_encoded_once(self, tmp_path, monkeypatch):
        """The bytes the chain step hashes are the bytes framed on disk:
        one encode per appended or rewritten record, not two."""
        import repro.proto.wire as wire

        calls = []

        def counting(record, real=wire.encode_record):
            calls.append(record["r"])
            return real(record)

        monkeypatch.setattr(wire, "encode_record", counting)
        monkeypatch.setattr(journal_mod, "encode_record", counting, raising=False)
        j, _, _ = Journal.open(str(tmp_path / "j"), 0)
        for rec in RECORDS:
            j.append(rec)
        j.commit()
        assert len(calls) == len(RECORDS)
        j.rewrite(RECORDS)
        assert len(calls) == 2 * len(RECORDS)
        j.close()
        j, records, torn = Journal.open(str(tmp_path / "j"), 0)
        j.close()
        assert not torn and len(records) == len(RECORDS)

    def test_uncommitted_appends_are_not_the_journals_problem(self, tmp_path):
        # append without commit, then drop the handle: the tail may or
        # may not reach the disk — the reader must treat whatever it
        # finds as a valid prefix either way
        path = tmp_path / "j"
        j, _, _ = Journal.open(str(path), 0)
        j.append(RECORDS[0])
        j.commit()
        j.append(RECORDS[1])  # never committed
        j.close()  # close flushes; simulate the crash by truncating below
        size_with_tail = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size_with_tail - 3)
        j2, records, torn = Journal.open(str(path), 0)
        assert torn and len(records) == 1
        j2.close()


class TestTornTail:
    @pytest.mark.parametrize("chop", [1, 3, 7, 9, 20])
    def test_truncated_mid_record_recovers_prefix(self, tmp_path, chop):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - chop)
        j, records, torn = Journal.open(str(path), 0)
        assert torn
        assert len(records) < len(RECORDS)
        # the file was physically truncated back to the valid prefix
        j.close()
        j2, records2, torn2 = Journal.open(str(path), 0)
        assert not torn2 and records2 == records
        j2.close()

    def test_bit_flip_in_final_record_is_a_torn_tail(self, tmp_path):
        # damage to the very last frame is indistinguishable from a torn
        # write, so it is truncated — the fsync_point model, not an error
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        raw = bytearray(open(path, "rb").read())
        raw[-5] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        _, records, torn = Journal.open(str(path), 0)
        assert torn and len(records) == len(RECORDS) - 1

    @pytest.mark.parametrize("prefix", [b"", MAGIC[:2]], ids=["0B", "2B"])
    def test_torn_creation_is_a_torn_tail(self, tmp_path, prefix):
        # a power cut between creating the file and the magic's fsync
        # leaves a strict prefix of MAGIC: torn, never corrupt
        path = tmp_path / "j"
        path.write_bytes(prefix)
        j, records, torn = Journal.open(str(path), 0)
        assert torn and records == []
        for rec in RECORDS:
            j.append(rec)
        j.commit()
        j.close()
        _, records2, torn2 = Journal.open(str(path), 0)
        assert not torn2 and len(records2) == len(RECORDS)

    def test_short_file_that_is_not_a_magic_prefix_is_corrupt(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"XY")
        with pytest.raises(CorruptImageError) as info:
            Journal.open(str(path), 0)
        assert info.value.offset == 0

    def test_appends_continue_after_truncation(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 2)
        j, records, torn = Journal.open(str(path), 0)
        assert torn
        j.append({"r": "entry", "c": 9, "k": "9.0", "e": "z"})
        j.commit()
        j.close()
        _, records2, torn2 = Journal.open(str(path), 0)
        assert not torn2
        assert records2[-1]["k"] == "9.0"


class TestCorruption:
    def flip(self, path, offset):
        raw = bytearray(open(path, "rb").read())
        raw[offset] ^= 0xFF
        open(path, "wb").write(bytes(raw))

    def test_bit_flip_mid_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        self.flip(path, 40)  # inside an early frame, valid data after it
        with pytest.raises(CorruptImageError) as info:
            Journal.open(str(path), 0)
        assert info.value.path == str(path)
        assert info.value.offset >= len(MAGIC)
        assert "CRC" in str(info.value)

    def test_bad_magic_raises_at_offset_zero(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        self.flip(path, 0)
        with pytest.raises(CorruptImageError) as info:
            Journal.open(str(path), 0)
        assert info.value.offset == 0

    def test_wrong_pid_breaks_the_chain(self, tmp_path):
        # a journal spliced in from another replica's directory: every
        # CRC is fine, but the genesis digest differs per pid
        path = tmp_path / "j"
        make_journal(path, RECORDS, pid=0)
        with pytest.raises(CorruptImageError) as info:
            Journal.open(str(path), 1)
        assert "digest chain" in str(info.value)

    def test_crc_matching_garbage_payload_is_rejected(self, tmp_path):
        # a frame whose CRC is self-consistent but whose payload is not a
        # chained record (e.g. written by something else entirely)
        path = tmp_path / "j"
        make_journal(path, RECORDS[:2])
        payload = b'{"r":"entry","c":9}'  # no "d" link
        frame = FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        with open(path, "ab") as fh:
            fh.write(frame + b"\x00" * 64)  # valid-ish data after it
        with pytest.raises(CorruptImageError) as info:
            Journal.open(str(path), 0)
        assert "digest chain" in str(info.value)


class TestCompactionRewrite:
    def test_rewrite_is_atomic_and_restarts_the_chain(self, tmp_path):
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        j, _, _ = Journal.open(str(path), 0)
        j.rewrite(RECORDS[:2])
        assert j.records == 2
        j.close()
        _, records, torn = Journal.open(str(path), 0)
        assert not torn and len(records) == 2

    def test_stale_tmp_from_interrupted_compaction_is_discarded(self, tmp_path):
        # crash between writing journal.tmp and the rename: the tmp file
        # is garbage, the old generation is still the durable truth
        path = tmp_path / "j"
        make_journal(path, RECORDS)
        with open(str(path) + ".tmp", "wb") as fh:
            fh.write(b"half-written new generation")
        _, records, torn = Journal.open(str(path), 0)
        assert not torn and len(records) == len(RECORDS)
        assert not os.path.exists(str(path) + ".tmp")

    def test_rewrite_fsyncs_the_directory(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            journal_mod, "fsync_dir", lambda p: calls.append(p)
        )
        path = tmp_path / "j"
        j, _, _ = Journal.open(str(path), 0)
        assert calls == [str(tmp_path)]  # file creation synced the dir
        j.append(RECORDS[0])
        j.commit()
        j.rewrite(RECORDS[:1])
        assert calls == [str(tmp_path), str(tmp_path)]  # and the rename
        j.close()
