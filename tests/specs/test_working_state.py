"""The working-state contract of every spec in :mod:`repro.specs`.

A replica folds its replay tip in place: ``thaw`` makes a private working
copy, ``fold_into`` mutates it, ``freeze`` hands out an immutable
snapshot.  Property-tested here for every spec:

* ``freeze(fold_into(thaw(s), us)) == apply_batch(s, us)``;
* ``s`` is unchanged by thawing and folding;
* a frozen snapshot is unchanged by later folds into the working state;
* ``observe`` answers a working state and its snapshot alike.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro import specs
from repro.specs import counter as C
from repro.specs import flag as F
from repro.specs import graph_spec as G
from repro.specs import gset as GS
from repro.specs import log_spec as L
from repro.specs import map_spec as M
from repro.specs import max_register as X
from repro.specs import queue_spec as Q
from repro.specs import register as R
from repro.specs import set_spec as S
from repro.specs import stack_spec as K
from repro.specs.product import ProductSpec, left, right

V = range(4)

#: spec -> (the updates a fold draws from, the (query, args) it answers)
CASES = {
    specs.SetSpec(): (
        [S.insert(v) for v in V] + [S.delete(v) for v in V],
        [("read", ())] + [("contains", (v,)) for v in V],
    ),
    specs.GraphSpec(): (
        [G.add_vertex(v) for v in V] + [G.remove_vertex(v) for v in V]
        + [G.add_edge(0, v) for v in V[1:]] + [G.remove_edge(0, 1)],
        [("vertices", ()), ("edges", ()), ("has_vertex", (1,)),
         ("has_edge", (0, 1)), ("neighbors", (0,)), ("degree", (0,))],
    ),
    specs.GSetSpec(): (
        [GS.insert(v) for v in V],
        [("read", ())] + [("contains", (v,)) for v in V],
    ),
    specs.RegisterSpec(): ([R.write(v) for v in V], [("read", ())]),
    specs.MemorySpec(): (
        [R.mem_write(x, v) for x in "xy" for v in V],
        [("read", ("x",)), ("read", ("y",)), ("snapshot", ())],
    ),
    specs.CounterSpec(): (
        [C.inc(1), C.inc(3), C.dec(2)], [("read", ()), ("sign", ())],
    ),
    specs.QueueSpec(): (
        [Q.enqueue(v) for v in V] + [Q.pop()],
        [("front", ()), ("size", ()), ("snapshot", ())],
    ),
    specs.StackSpec(): (
        [K.push(v) for v in V] + [K.drop()],
        [("top", ()), ("size", ()), ("snapshot", ())],
    ),
    specs.LogSpec(): (
        [L.append(v) for v in V],
        [("read", ()), ("length", ())] + [("at", (i,)) for i in range(3)],
    ),
    specs.MapSpec(): (
        [M.put(k, v) for k in "ab" for v in V] + [M.remove("a"), M.remove("c")],
        [("get", ("a",)), ("get", ("b",)), ("keys", ()), ("snapshot", ())],
    ),
    specs.MaxRegisterSpec(): ([X.write_max(float(v)) for v in V], [("read", ())]),
    specs.FlagSpec(): ([F.enable(), F.disable()], [("read", ())]),
    ProductSpec(specs.SetSpec(), specs.MapSpec()): (
        [left(S.insert(v)) for v in V] + [left(S.delete(1))]
        + [right(M.put("a", v)) for v in V] + [right(M.remove("a"))],
        [("L.read", ()), ("L.contains", (1,)), ("R.get", ("a",)), ("R.keys", ())],
    ),
}


def test_every_spec_is_covered():
    assert {type(spec) for spec in CASES} >= set(specs.ALL_SPECS)


@pytest.mark.parametrize("spec", list(CASES), ids=lambda spec: spec.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_working_state_folds_like_apply_batch(spec, data):
    updates, queries = CASES[spec]
    batch = st.lists(st.sampled_from(updates), max_size=12)
    s = spec.apply_batch(spec.initial_state(), data.draw(batch))
    s_before = copy.deepcopy(s)
    first, later = data.draw(batch), data.draw(batch)

    work = spec.fold_into(spec.thaw(s), first)
    snapshot = spec.freeze(work)
    snapshot_before = copy.deepcopy(snapshot)
    assert snapshot == spec.apply_batch(s, first)
    for name, args in queries:
        assert spec.observe(work, name, args) == spec.observe(snapshot, name, args)

    work = spec.fold_into(work, later)
    assert spec.freeze(work) == spec.apply_batch(s, list(first) + list(later))
    assert snapshot == snapshot_before  # later folds leave snapshots alone
    assert s == s_before  # and never touch the state thawed from
