"""What a query costs on the replicas the node ships — in counts.

``make_factory`` (what ``python -m repro.net serve`` runs) hands out
replicas that keep their replayed prefix: a query folds the updates that
arrived since the previous one into a working state the replica owns —
the keyed replay on the set, which copies no state and answers a late
write with a slot check (the checkpoint replay, named here by
``replay="checkpoint"``, copies once per checkpoint interval) — and
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
from repro.specs.register import MemorySpec, mem_write
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
def test_a_busy_replica_copies_its_state_once_per_checkpoint_interval(gc):
    spec = CountingSetSpec()
    replica_cls = GarbageCollectedReplica if gc else UniversalReplica
    r = replica_cls(0, 3, spec, replay="checkpoint")
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


class SlotCountingSetSpec(CountingSetSpec):
    """Also counts ``slot`` calls: the keyed replay's scan, plus one for
    the late entry's own slot."""

    def reset(self):
        super().reset()
        self.slots = 0

    def slot(self, update):
        self.slots += 1
        return super().slot(update)


@pytest.mark.parametrize("gc", [False, True])
def test_a_busy_keyed_replica_copies_nothing_and_checks_a_late_write_by_slot(
    gc, monkeypatch
):
    monkeypatch.setitem(net_main.OBJECTS, "set", SlotCountingSetSpec)
    factory = net_main.make_factory("set", gc=gc)
    r = factory(0, 3)
    spec = r.spec
    assert r.replay.name == "keyed" and spec.thaws == 1  # its working state
    spec.reset()
    for i in range(12_000):
        r.on_update(S.insert(i))
    assert spec.folds == [] and spec.slots == 0  # an append costs nothing
    r.on_query("contains", (0,))  # the cold fold: one fold, no copy
    assert spec.folds == [12_000] == [replayed(r)]

    # a boot: load_log folds nothing before the first query
    booted = factory(0, 3)
    boot_spec = booted.spec
    boot_spec.reset()
    assert booted.load_log(r.updates) == 12_000
    assert (boot_spec.folds, boot_spec.slots, boot_spec.thaws) == ([], 0, 0)
    assert booted.on_query("contains", (11_999,)) is True
    assert boot_spec.folds == [12_000] and boot_spec.thaws == 0

    spec.reset()
    for round_ in range(400):
        for k in range(4):
            r.on_update(S.delete(round_) if k == 3 else S.insert(-4 * round_ - k))
        r.on_query("contains", (round_,))
    assert spec.folds == [4] * 400 and spec.applies == 0 and spec.batches == []
    assert spec.thaws == 0 and spec.freezes == 0  # the query path copies nothing

    def deliver_late(cl, update):
        """Deliver ``update`` from pid 1 stamped ``cl`` (under the folded
        tip); return how many folded entries now sort after it."""
        spec.reset()
        before = replayed(r)
        r.on_message(1, (cl, 1, update))
        assert spec.thaws == 0 and spec.freezes == 0
        assert replayed(r) == before  # nothing pending for a query
        return len(r.updates) - 1 - r._keys.index((cl, 1))

    # shadowed by a folded write to its slot — the last entry folded
    assert r.updates[-1][2] == S.delete(399)
    lateness = deliver_late(13_000, S.insert(399))
    assert lateness > 0 and spec.folds == []
    assert 1 <= spec.slots <= lateness + 1  # its own slot, then the scan
    assert r.on_query("contains", (399,)) is False
    # shadowed by a write further on: the scan stops at it
    lateness = deliver_late(12_010, S.delete(-4 * 399 - 1))
    assert spec.folds == [] and spec.slots < lateness + 1
    assert r.on_query("contains", (-4 * 399 - 1,)) is True
    # no folded write to its slot after it: exactly one update folded
    lateness = deliver_late(12_500, S.insert("late"))
    assert spec.folds == [1] and spec.slots == lateness + 1
    assert r.on_query("contains", ("late",)) is True and spec.folds == [1]
    assert rollbacks(r) == 0

    # the folded state is frozen once per position, however often polled
    spec.reset()
    first, second = r.local_state(), r.local_state()
    assert first is second and spec.freezes == 1
    assert type(first) is frozenset and "late" in first and 399 not in first
    assert first == booted.spec.apply_batch(
        frozenset(), [u for _, _, u in r.updates]
    )


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


class CountingMemorySpec(MemorySpec):
    """A memory spec that counts its whole-dict copies: every path that
    copies the register dict (``apply``, ``apply_batch``, ``thaw``,
    ``freeze``) and each in-place fold."""

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self):
        self.copies = []
        self.folds = []

    def apply(self, state, update):
        self.copies.append("apply")
        return super().apply(state, update)

    def apply_batch(self, state, updates):
        self.copies.append("apply_batch")
        return super().apply_batch(state, updates)

    def thaw(self, state):
        self.copies.append("thaw")
        return super().thaw(state)

    def fold_into(self, work, updates):
        self.folds.append(len(updates))
        return super().fold_into(work, updates)

    def freeze(self, work):
        self.copies.append("freeze")
        return super().freeze(work)


def test_a_keyed_memory_query_folds_the_batch_and_copies_no_registers():
    # 50 000 registers: a copy of the dict per query would be O(registers)
    spec = CountingMemorySpec()
    r = UniversalReplica(0, 2, spec, replay="keyed")
    assert spec.copies == ["thaw"]  # its working state, once
    for x in range(50_000):
        r.on_update(mem_write(x, x))
    assert r.on_query("read", (49_999,)) == 49_999  # the cold fold
    spec.reset()
    for i in range(200):
        r.on_update(mem_write(i % 7, -i))
        if i % 2:
            r.on_message(1, (r.clock.value + 1, 1, mem_write(50_000 + i, i)))
        assert r.on_query("read", (i % 7,)) == -i
    assert spec.copies == []  # no whole-dict copy on the write+read path
    assert spec.folds == [2 if i % 2 else 1 for i in range(200)]
