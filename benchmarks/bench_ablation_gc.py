"""ABL-GC — ablation: stable-prefix garbage collection bounds the log.

Section VII-C: "asynchrony is used as a convenient abstraction for systems
in which transmission delays are actually bounded ... after some time old
messages can be garbage collected."

Series regenerated: live log length vs operations issued, with GC off
(plain Algorithm 1: grows linearly forever) and on (bounded by the
in-flight window).  Shape asserted: the GC'd log stays below a small
constant fraction of the naive one while the final states agree.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.adt import _canonical
from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()
CHECKPOINTS = (100, 200, 400, 800)


def run_with_log_series(kind: str):
    if kind == "gc":
        factory = lambda p, n: GarbageCollectedReplica(
            p, n, SPEC, replay="checkpoint", gc_interval=16
        )
    else:
        factory = lambda p, n: UniversalReplica(p, n, SPEC)
    c = Cluster(3, factory, fifo=True, seed=5)
    series = []
    ops = 0
    for target in CHECKPOINTS:
        while ops < target:
            c.update(ops % 3, S.insert(ops % 9) if ops % 2 else S.delete(ops % 9))
            ops += 1
            if ops % 4 == 0:
                c.run()
        c.run()
        length = max(r.log_length for r in c.replicas)
        series.append((target, length))
    return c, series


def test_gc_bounds_log(benchmark, save_result):
    c_gc, gc_series = benchmark(run_with_log_series, "gc")
    c_naive, naive_series = run_with_log_series("naive")

    rows = [
        [ops, naive_len, gc_len]
        for (ops, naive_len), (_, gc_len) in zip(naive_series, gc_series)
    ]
    save_result(
        "ablation_gc",
        format_table(["updates issued", "naive log", "gc log"], rows,
                     title="stable-prefix GC bounds the update log"),
    )

    # Naive grows linearly with the history.
    assert naive_series[-1][1] == CHECKPOINTS[-1]
    # GC'd log is bounded by the in-flight window, far below the history.
    assert gc_series[-1][1] <= CHECKPOINTS[-1] // 4
    # The dedup structures obey the same bound: ids at or below the GC
    # floor are covered implicitly, so the enumerated known set must not
    # quietly re-grow O(total updates) (it did before it was pruned —
    # GC's memory bound was cosmetic).
    assert all(
        r.known_ids_tracked <= CHECKPOINTS[-1] // 4 for r in c_gc.replicas
    ), [r.known_ids_tracked for r in c_gc.replicas]
    # And the semantics did not change.
    assert {_canonical(s) for s in c_gc.states().values()} == {
        _canonical(s) for s in c_naive.states().values()
    }
