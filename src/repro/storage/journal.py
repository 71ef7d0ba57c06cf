"""The append-only binary journal: framed records, torn-tail recovery.

This is the physical realisation of the paper's ``fsync_point`` crash
model.  The simulator *declares* that a crash loses the unflushed log
tail and nothing else; a real filesystem makes no such promise — a power
cut can leave a half-written record at the end of the file, and a rename
that was never followed by a directory fsync can vanish entirely.  The
journal closes that gap:

* every record is framed ``len(4, BE) | crc32(4, BE) | payload`` and the
  payload is the canonical record encoding from
  :mod:`repro.proto.wire` — so a torn write is *detectable*;
* a frame that fails its CRC **at the end of the file** is the torn tail:
  recovery truncates the file back to the last valid frame, which is
  exactly ``fsync_point`` semantics (the tail is lost, the prefix is
  intact).  A frame that fails mid-file — valid frames follow it — is not
  a crash artifact but corruption, and raises
  :class:`CorruptImageError` with the byte offset;
* records thread the rolling digest chain ``H(H'|H(record))`` from
  :func:`repro.proto.wire.genesis_digest`, so splicing, reordering, or
  records from another replica's journal fail verification even when
  every frame's own CRC is fine;
* appends end with ``flush + fsync`` (batched per commit), and the paths
  that create or replace the file fsync the *directory* too — the classic
  crash-consistency bug this PR sweeps out of the snapshot writer.

The journal knows nothing about replicas; it stores dict records.  The
engine (:mod:`repro.storage.engine`) decides what the records mean.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.proto.wire import (
    DIGEST_LINK_HEX,
    advance_digest,
    chain_record,
    genesis_digest,
)

#: file magic: "repro journal", format generation 3 (the image version).
MAGIC = b"RJL3"
#: frame header: payload length, crc32(payload) — both big-endian u32.
FRAME_HEADER = struct.Struct(">II")
#: a single record larger than this is never legitimate (an update is a
#: few hundred bytes; a compacted base a few KiB) — a length field beyond
#: it means the header bytes themselves are damaged.
MAX_RECORD = 64 * 1024 * 1024


class CorruptImageError(RuntimeError):
    """A durable image failed validation *beyond* a torn tail.

    Carries the offending ``path`` and byte ``offset`` so an operator (or
    ``/healthz``) can point at the damage.  Torn tails never raise this —
    they are the crash model working as designed and are silently
    truncated; this error means bytes the journal *did* fsync came back
    different, or recovery rejected the image they decode to.
    """

    def __init__(self, path: str, offset: int, reason: str) -> None:
        self.path = str(path)
        self.offset = int(offset)
        self.reason = reason
        super().__init__(
            f"{self.path}: corrupt durable image at byte {self.offset}: {reason}"
        )


def fsync_dir(path: str) -> None:
    """fsync the directory ``path`` so a rename/create inside it is
    durable (best-effort: platforms that cannot fsync a directory — or
    cannot open one — simply skip)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def frame_record(payload: bytes) -> bytes:
    """One chained record's :func:`~repro.proto.wire.chain_record` payload
    as its on-disk frame."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class Journal:
    """One replica's append-only journal file.

    Use :meth:`open` (scans, verifies, truncates a torn tail, returns the
    surviving records) rather than the constructor.  Appends go through
    :meth:`append` + :meth:`commit` — a commit is the durability point
    (``fsync_point`` advances to the last committed record).
    """

    def __init__(self, path: str, pid: int, *, fsync: bool = True) -> None:
        self.path = str(path)
        self.pid = int(pid)
        #: benchmarks building 10^5-record journals turn the per-commit
        #: fsync off; everything else leaves it on.
        self.fsync = fsync
        self.digest = genesis_digest(pid)
        self.records = 0
        self._fh = None  # type: ignore[var-annotated]

    # -- opening / recovery ------------------------------------------------------

    @classmethod
    def open(
        cls, path: str, pid: int, *, fsync: bool = True
    ) -> tuple["Journal", list[dict], bool]:
        """Open (or create) the journal at ``path``.

        Returns ``(journal, records, torn)``: the verified surviving
        records and whether a torn tail was truncated.  A stale
        compaction tmp file (crash between tmp write and rename) is
        removed — the rename never happened, so the old generation is
        still the durable truth.  A file shorter than the magic that is a
        prefix of it is a torn *creation*: the magic is rewritten and
        ``torn`` is True.  Raises :class:`CorruptImageError` on mid-file
        damage (a full-length wrong magic included, at offset 0).
        """
        tmp = path + ".tmp"
        if os.path.exists(tmp):
            os.unlink(tmp)
        journal = cls(path, pid, fsync=fsync)
        fresh = not os.path.exists(path)
        raw = b""
        if not fresh:
            with open(path, "rb") as fh:
                raw = fh.read()
        if len(raw) < len(MAGIC) and MAGIC.startswith(raw):
            # No file yet — or a torn creation: a power cut between
            # creating the file and the magic's fsync leaves a strict
            # prefix of MAGIC, which is a torn tail like any other.
            with open(path, "xb" if fresh else "wb") as fh:
                fh.write(MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            fsync_dir(os.path.dirname(path) or ".")
            records, valid_end, torn = [], len(MAGIC), not fresh
        else:
            records, valid_end, torn = journal._scan(raw)
        journal._fh = open(path, "r+b")
        if torn:
            journal._fh.truncate(valid_end)
            if fsync:
                os.fsync(journal._fh.fileno())
        journal._fh.seek(valid_end)
        journal.records = len(records)
        return journal, records, torn

    def _scan(self, raw: bytes) -> tuple[list[dict], int, bool]:
        """Walk the frames in ``raw``, advancing the digest chain.

        Returns ``(records, valid_end_offset, torn)``.  The torn/corrupt
        distinction: an invalid frame that reaches (or overruns) the end
        of the file is the crash model's lost tail; invalid bytes *with
        valid data after them* mean the storage lied about an fsync.
        """
        path = self.path
        if raw[: len(MAGIC)] != MAGIC:
            raise CorruptImageError(
                path, 0, f"bad magic {raw[:len(MAGIC)]!r} (want {MAGIC!r})"
            )
        records: list[dict] = []
        offset = len(MAGIC)
        size = len(raw)
        while offset < size:
            header = raw[offset:offset + FRAME_HEADER.size]
            if len(header) < FRAME_HEADER.size:
                return records, offset, True  # torn: partial header at EOF
            length, crc = FRAME_HEADER.unpack(header)
            end = offset + FRAME_HEADER.size + length
            if length > MAX_RECORD:
                # The length field itself is garbage; nothing after it can
                # be reframed.  At EOF that is a torn header, but garbage
                # we cannot skip past is indistinguishable from mid-file
                # damage — refuse rather than silently drop a suffix.
                if size - offset <= FRAME_HEADER.size + 8:
                    return records, offset, True
                raise CorruptImageError(
                    path, offset,
                    f"frame length {length} exceeds the {MAX_RECORD}-byte "
                    "record bound",
                )
            if end > size:
                return records, offset, True  # torn: payload ran past EOF
            payload = raw[offset + FRAME_HEADER.size:end]
            if zlib.crc32(payload) != crc:
                if end >= size:
                    return records, offset, True  # torn: last frame damaged
                raise CorruptImageError(
                    path, offset,
                    "CRC mismatch on a frame with valid data after it "
                    "(fsynced bytes changed on disk)",
                )
            try:
                rec = json.loads(payload)
            except ValueError as exc:
                if end >= size:
                    return records, offset, True
                raise CorruptImageError(
                    path, offset, f"frame payload is not valid JSON: {exc}"
                ) from exc
            if not isinstance(rec, dict) or rec.get("d") != (
                self.digest.hex()[:DIGEST_LINK_HEX]
            ):
                raise CorruptImageError(
                    path, offset,
                    "digest chain mismatch (record reordered, spliced, or "
                    "from another replica's journal)",
                )
            self.digest = advance_digest(self.digest, payload)
            records.append(rec)
            offset = end
        return records, offset, False

    # -- appending ---------------------------------------------------------------

    def append(self, record: dict) -> dict:
        """Chain and buffer one record; durable only after :meth:`commit`."""
        if self._fh is None:
            raise RuntimeError("journal is closed")
        self.digest, stamped, payload = chain_record(self.digest, record)
        self._fh.write(frame_record(payload))
        self.records += 1
        return stamped

    def commit(self) -> None:
        """Flush and fsync the appended batch — the durability point."""
        if self._fh is None:
            raise RuntimeError("journal is closed")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    # -- compaction --------------------------------------------------------------

    def rewrite(self, records: list[dict]) -> list[dict]:
        """Atomically replace the journal with a fresh generation.

        Writes ``records`` (chained from genesis again) to a tmp file,
        fsyncs it, renames over the journal and fsyncs the directory —
        so a crash at any point leaves either the old generation or the
        new one, never a mix.  Returns the stamped records.
        """
        if self._fh is None:
            raise RuntimeError("journal is closed")
        tmp = self.path + ".tmp"
        digest = genesis_digest(self.pid)
        stamped: list[dict] = []
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for rec in records:
                digest, s, payload = chain_record(digest, rec)
                fh.write(frame_record(payload))
                stamped.append(s)
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        fsync_dir(os.path.dirname(self.path) or ".")
        self._fh = open(self.path, "r+b")
        self._fh.seek(0, os.SEEK_END)
        self.digest = digest
        self.records = len(stamped)
        return stamped

    # -- introspection / lifecycle -----------------------------------------------

    @property
    def digest_hex(self) -> str:
        return self.digest.hex()

    def bytes_on_disk(self) -> int:
        if self._fh is None:
            return os.path.getsize(self.path) if os.path.exists(self.path) else 0
        self._fh.flush()
        return os.fstat(self._fh.fileno()).st_size

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
