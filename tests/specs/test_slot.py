"""The ``slot`` contract of every spec that declares one.

A spec declaring ``slotted_updates`` names, by ``slot(u)``, the one slot
an update overwrites: ``T(s, u)`` differs from ``s`` only at ``slot(u)``,
and the value there does not depend on ``s``.  The keyed replay rests on
it (a late update is
shadowed by any later write to its slot, and commutes with every write
to another), so each declaring spec is property-tested here, reading
slots through ``observe``:

* ``apply(s, u)`` agrees with ``s`` on every other slot;
* ``apply(s, u)`` agrees with ``apply(s', u)`` at ``slot(u)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import specs
from repro.specs import map_spec as M
from repro.specs import register as R
from repro.specs import set_spec as S

V = range(4)

#: spec -> (the updates states are built from, the slots there are,
#: how to read one slot of a state through ``observe``)
CASES = {
    specs.SetSpec(): (
        [S.insert(v) for v in V] + [S.delete(v) for v in V],
        list(V),
        lambda spec, state, v: spec.observe(state, "contains", (v,)),
    ),
    specs.MapSpec(): (
        [M.put(k, v) for k in V for v in "xy"] + [M.remove(k) for k in V],
        list(V),
        lambda spec, state, k: spec.observe(state, "get", (k,)),
    ),
    specs.MemorySpec(): (
        [R.mem_write(x, v) for x in V for v in "xy"],
        list(V),
        lambda spec, state, x: spec.observe(state, "read", (x,)),
    ),
    specs.RegisterSpec(): (
        [R.write(v) for v in V],
        [None],
        lambda spec, state, _slot: spec.observe(state, "read"),
    ),
}


def test_every_spec_declaring_a_slot_is_covered():
    declaring = {cls for cls in specs.ALL_SPECS if cls.slotted_updates}
    assert declaring == {type(spec) for spec in CASES}


@pytest.mark.parametrize("spec", list(CASES), ids=lambda spec: spec.name)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_an_update_overwrites_its_slot_and_only_it(spec, data):
    updates, slots, read = CASES[spec]
    states = st.lists(st.sampled_from(updates), max_size=10).map(
        lambda us: spec.apply_batch(spec.initial_state(), us)
    )
    s, s2 = data.draw(states), data.draw(states)
    u = data.draw(st.sampled_from(updates))
    key = spec.slot(u)
    assert key in slots
    after = spec.apply(s, u)
    for other in slots:
        if other != key:
            assert read(spec, after, other) == read(spec, s, other), other
    assert read(spec, after, key) == read(spec, spec.apply(s2, u), key)
