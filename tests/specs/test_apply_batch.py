"""Property tests: ``apply_batch`` is observationally equal to folding
``apply`` — the contract every batch fast path must honour."""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.specs import CounterSpec, LogSpec, MemorySpec, SetSpec
from repro.specs import counter as C
from repro.specs import log_spec as L
from repro.specs import register as R
from repro.specs import set_spec as S


def fold(spec, state, updates):
    return functools.reduce(spec.apply, updates, state)


set_updates = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5)).map(
        lambda t: S.insert(t[1]) if t[0] else S.delete(t[1])
    ),
    max_size=30,
)
counter_updates = st.lists(
    st.tuples(st.booleans(), st.integers(1, 9)).map(
        lambda t: C.inc(t[1]) if t[0] else C.dec(t[1])
    ),
    max_size=200,
)
log_updates = st.lists(st.integers(0, 9).map(L.append), max_size=30)
memory_updates = st.lists(
    st.tuples(st.sampled_from("xyz"), st.integers(0, 9)).map(
        lambda t: R.mem_write(t[0], t[1])
    ),
    max_size=30,
)


@given(st.frozensets(st.integers(0, 5), max_size=5), set_updates)
@settings(max_examples=150, deadline=None)
def test_set_batch_equals_fold(state, updates):
    spec = SetSpec()
    assert spec.apply_batch(state, updates) == fold(spec, state, updates)


@given(st.integers(-50, 50), counter_updates)
@settings(max_examples=100, deadline=None)
def test_counter_batch_equals_fold(state, updates):
    spec = CounterSpec()
    assert spec.apply_batch(state, updates) == fold(spec, state, updates)


@given(st.lists(st.integers(0, 9), max_size=5).map(tuple), log_updates)
@settings(max_examples=100, deadline=None)
def test_log_batch_equals_fold(state, updates):
    spec = LogSpec()
    assert spec.apply_batch(state, updates) == fold(spec, state, updates)


@given(
    st.dictionaries(st.sampled_from("xyz"), st.integers(0, 9), max_size=3),
    memory_updates,
)
@settings(max_examples=100, deadline=None)
def test_memory_batch_equals_fold(state, updates):
    spec = MemorySpec()
    assert spec.apply_batch(state, updates) == fold(spec, state, updates)


def test_counter_batch_crosses_vectorization_threshold():
    spec = CounterSpec()
    updates = [C.inc(1)] * 100 + [C.dec(2)] * 50
    assert spec.apply_batch(0, updates) == 0 + 100 - 100


def test_default_batch_is_the_fold():
    from repro.specs import FlagSpec
    from repro.specs.flag import disable, enable

    spec = FlagSpec()
    assert spec.apply_batch(False, [enable(), disable(), enable()]) is True


def test_replica_batch_and_loop_agree():
    """Naive replay folds a replica's log in one ``apply_batch``; one
    ``apply`` per update over the same log lands on the same state."""
    from repro.core.universal import UniversalReplica
    from repro.sim import Cluster
    from repro.sim.network import ExponentialLatency
    from repro.sim.workload import conflict_heavy_set_workload, run_workload

    spec = SetSpec()
    wl = conflict_heavy_set_workload(3, 50, seed=3)
    c = Cluster(3, lambda p, n: UniversalReplica(p, n, spec),
                latency=ExponentialLatency(3.0), seed=3)
    run_workload(c, wl)
    for pid, r in enumerate(c.replicas):
        state = spec.initial_state()
        for _, _, update in r.updates:
            state = spec.apply(state, update)
        assert c.query(pid, "read") == spec.observe(state, "read", ())
