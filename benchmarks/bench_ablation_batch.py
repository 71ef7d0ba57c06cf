"""ABL-BATCH — ablation: batch-folded replay vs per-update apply calls.

The hpc-parallel rulebook: measure first, then vectorize the hot loop.
Algorithm 1's hot loop is the replay fold; ``UQADT.apply_batch`` lets each
spec fold a whole log at once (numpy delta sum for the counter, single
concatenation for the log, reverse membership pass for the set).

Measured: wall-clock of one full replay at log length 20 000, batch vs
loop, per spec, each the best of ``REPEATS`` runs.  Shape asserted: batch
never loses, and wins by a large factor on the specs with real fast paths
(the log's naive fold is quadratic, so its factor grows with the log).
Seconds only, so nothing is saved under ``results/``.
"""

from __future__ import annotations

import timeit

import pytest

from repro.specs import CounterSpec, LogSpec, MemorySpec, SetSpec
from repro.specs import counter as C
from repro.specs import log_spec as L
from repro.specs import register as R
from repro.specs import set_spec as S

LOG_LEN = 20_000
#: each fold is timed as the best of this many runs: one millisecond-scale
#: run is at the mercy of whatever else the host is doing.
REPEATS = 5


def make_updates(spec_name: str):
    if spec_name == "counter":
        return [C.inc(1) if i % 3 else C.dec(1) for i in range(LOG_LEN)]
    if spec_name == "set":
        return [
            S.insert(i % 50) if i % 4 else S.delete(i % 50) for i in range(LOG_LEN)
        ]
    if spec_name == "log":
        return [L.append(i) for i in range(LOG_LEN)]
    if spec_name == "memory":
        return [R.mem_write(i % 50, i) for i in range(LOG_LEN)]
    raise ValueError(spec_name)


SPECS = {
    "counter": CounterSpec,
    "set": SetSpec,
    "log": LogSpec,
    "memory": MemorySpec,
}


def loop_fold(spec, updates):
    state = spec.initial_state()
    for u in updates:
        state = spec.apply(state, u)
    return state


def best_of(fn) -> float:
    return min(timeit.repeat(fn, number=1, repeat=REPEATS))


@pytest.mark.parametrize("name", list(SPECS))
def test_batch_vs_loop(benchmark, name):
    spec = SPECS[name]()
    updates = make_updates(name)

    batch_state = benchmark(spec.apply_batch, spec.initial_state(), updates)
    assert spec.canonical(batch_state) == spec.canonical(loop_fold(spec, updates))

    loop_s = best_of(lambda: loop_fold(spec, updates))
    batch_s = best_of(lambda: spec.apply_batch(spec.initial_state(), updates))
    speedup = loop_s / batch_s if batch_s > 0 else float("inf")

    # Shape: batch at least competitive everywhere, decisively faster on
    # the specs whose naive fold copies state per update (the log's is
    # quadratic; the set/memory copy per call); the counter's fold is a
    # plain integer add, so only call overhead is saved there.
    if name == "log":
        assert speedup > 20, speedup
    elif name in ("set", "memory"):
        assert speedup > 2, speedup
    else:
        assert speedup > 0.8, speedup
