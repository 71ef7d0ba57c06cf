"""What a query costs on the replicas the node ships — in counts.

``make_factory`` (what ``python -m repro.net serve`` runs) hands out
replicas that keep their replayed prefix: a query folds the updates that
arrived since the previous one into a working state the replica owns —
no copy of the state unless the tip crosses a checkpoint position — and
its witness's visibility set is an O(1) view of the prefix of the
replica's arrival list that had arrived by then, whoever claims it and
whenever.  Algorithm 1 verbatim —
``UniversalReplica`` by name — still pays the whole log
(``tests/core/test_checkpoint.py::
TestCheckpointedReplica::test_naive_replica_pays_full_replay``).
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.net import __main__ as net_main
from repro.sim.replica import KnownIds
from repro.specs import SetSpec
from repro.specs import set_spec as S
from tests.counts import replayed, rollbacks
from tests.core.test_checkpoint import CountingSetSpec

SPEC = SetSpec()


@pytest.mark.parametrize("gc", [False, True])
def test_a_query_on_the_shipped_replica_folds_only_what_arrived_since(
    gc, monkeypatch
):
    monkeypatch.setitem(net_main.OBJECTS, "set", CountingSetSpec)
    r = net_main.make_factory("set", gc=gc)(0, 3)
    spec = r.spec
    for i in range(12_000):
        r.on_update(S.insert(i))
    r.on_query("contains", (0,))  # the cold fold, paid once
    assert replayed(r) == 12_000 == len(r.updates)
    for arrived in (0, 1, 3, 4, 7, 64, 200, 0):
        for k in range(arrived):
            if k % 2:
                r.on_message(1, (r.clock.value + 1, 1, S.insert(-r.clock.value)))
            else:
                r.on_update(S.delete(k))
        before = replayed(r)
        spec.reset()
        r.on_query("contains", (5,))
        assert replayed(r) - before == arrived
        assert sum(spec.folds) == arrived and len(spec.folds) <= arrived // 64 + 2
        assert spec.applies == 0 and spec.batches == [] and spec.thaws == 0
    assert rollbacks(r) == 0


@pytest.mark.parametrize("gc", [False, True])
def test_a_busy_replica_copies_its_state_once_per_checkpoint_interval(
    gc, monkeypatch
):
    monkeypatch.setitem(net_main.OBJECTS, "set", CountingSetSpec)
    r = net_main.make_factory("set", gc=gc)(0, 3)
    spec = r.spec
    for i in range(12_000):
        r.on_update(S.insert(i))
    r.on_query("contains", (0,))  # the cold fold: one thaw, then in place
    assert spec.thaws == 1
    spec.reset()
    for round_ in range(400):
        for k in range(4):
            r.on_update(S.delete(round_) if k == 3 else S.insert(-4 * round_ - k))
        r.on_query("contains", (round_,))
    # 13 600 entries: the tip crossed 12 032, 12 096, ..., 13 568
    crossings = 13_600 // 64 - 12_000 // 64
    assert spec.thaws == 0 and spec.freezes == crossings == 25
    assert sum(spec.folds) == 1_600 and spec.applies == 0 and spec.batches == []

    # a late message rolls the tip back to a checkpoint: no copy at
    # delivery, one thaw when the next query folds past it
    spec.reset()
    r.on_message(1, (13_000, 1, S.insert("late")))
    assert rollbacks(r) == 1
    assert (spec.thaws, spec.freezes, spec.folds) == (0, 0, [])
    assert r.on_query("contains", ("late",)) is True
    assert spec.thaws == 1

    # the tip is frozen once per position, however often it is polled
    spec.reset()
    first, second = r.local_state(), r.local_state()
    assert first is second and spec.freezes == 1
    assert type(first) is frozenset and "late" in first


def ids(replica):
    return frozenset((cl, j) for cl, j, _ in replica.updates)


def gc_replica():
    return GarbageCollectedReplica(
        0, 3, SPEC, gc_interval=10_000
    )


@pytest.fixture(params=["universal", "checkpointed", "gc"])
def r(request):
    if request.param == "gc":
        return gc_replica()
    replay = "naive" if request.param == "universal" else "checkpoint"
    return UniversalReplica(0, 3, SPEC, replay=replay)


@pytest.fixture
def built(monkeypatch):
    """Counts the O(log) work done on visibility views, over all
    replicas: every walk over a view's ids and every view frozen."""
    calls = []
    iterate, materialise = KnownIds.__iter__, KnownIds._materialise

    def counting_iterate(self):
        calls.append("iterate")
        return iterate(self)

    def counting_materialise(self):
        if self._frozen is None:
            calls.append("materialise")
        return materialise(self)

    monkeypatch.setattr(KnownIds, "__iter__", counting_iterate)
    monkeypatch.setattr(KnownIds, "_materialise", counting_materialise)
    return calls


class TestWitnessCapturedOnClaim:
    """The visibility half of a query's witness is the log's ids *at the
    query*, whenever it is claimed."""

    def test_claimed_at_once_is_the_eager_witness(self, r):
        for i in range(5):
            r.on_update(S.insert(i))
        r.on_message(1, (3, 1, S.insert("x")))
        r.on_query("read")
        meta = r.witness_meta()
        assert meta.pop("visible_floor", 0) == 0
        assert meta == {"timestamp": (r.clock.value, 0), "visible": ids(r)}
        assert r.witness_meta() == {}  # claimed once

    def test_a_remote_message_between_query_and_claim_is_not_visible(self, r):
        r.on_update(S.insert(1))
        r.on_query("read")
        seen, stamp = ids(r), (r.clock.value, 0)
        r.on_message(1, (1, 1, S.insert("late")))  # sorts before: late
        r.on_message(2, (9, 2, S.insert("new")))
        meta = r.witness_meta()
        assert meta["timestamp"] == stamp and meta["visible"] == seen
        assert len(ids(r)) == len(seen) + 2

    def test_a_collection_between_query_and_claim_changes_nothing(self):
        r = gc_replica()
        for i in range(6):
            r.on_update(S.insert(i))
        r.on_query("read")
        seen = ids(r)
        for j in (1, 2):
            r.on_message(j, ("hb", 4, j))
        assert r.collect_garbage() == 4
        meta = r.witness_meta()
        assert meta["visible"] == seen and meta["visible_floor"] == 0
        r.on_query("read")
        assert r.witness_meta() == {
            "timestamp": (r.clock.value, 0), "visible": ids(r), "visible_floor": 4,
        }

    def test_a_state_install_between_query_and_claim_changes_nothing(self):
        r = gc_replica()
        for i in range(6):
            r.on_update(S.insert(i))
        r.on_query("read")
        seen = ids(r)
        assert r.install_gc_state(base=frozenset(range(50)), clock_floor=5)
        assert len(r.updates) == 1
        meta = r.witness_meta()
        assert meta["visible"] == seen and meta["visible_floor"] == 0

    def test_unclaimed_witnesses_build_no_visibility_set(self, r, built):
        for i in range(1_000):
            r.on_update(S.insert(i))
            r.on_update(S.delete(i - 1))
            assert r.on_query("contains", (i,)) is True
            assert len(r.witness_meta()["visible"]) == len(r.updates)
        assert built == []  # 1 000 claimed witnesses, no pass over the log
        r.on_query("read")
        assert r.witness_meta()["visible"] == ids(r)
        assert built == ["iterate"]

    def test_the_next_local_op_supersedes_an_unclaimed_witness(self, r, built):
        r.on_update(S.insert(1))
        r.on_query("read")
        r.on_update(S.insert(2))
        assert r.witness_meta() == {"timestamp": (3, 0)}
        r.on_query("read")
        r.on_query("read")
        meta = r.witness_meta()
        assert meta["timestamp"] == (5, 0) and meta["visible"] == ids(r)
        assert built == ["iterate"]
