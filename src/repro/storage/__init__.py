"""Journal-backed durable storage (DESIGN.md §15, ``docs/storage.md``).

The physical realisation of the paper's ``fsync_point`` crash model: an
append-only journal of CRC-framed, digest-chained records
(:mod:`repro.storage.journal`) under an engine that flushes the cells
that changed and compacts on the GC floor
(:mod:`repro.storage.engine`).  ``python -m repro.storage.smoke`` runs
the crash-consistency scenarios (torn tail, bit flip, interrupted
compaction) end to end — the chaos CI job's storage leg.
"""

from repro.storage.engine import JournalStore
from repro.storage.journal import CorruptImageError, Journal, fsync_dir

__all__ = ["CorruptImageError", "Journal", "JournalStore", "fsync_dir"]
