"""The replay tip is a working state the replica owns; none of it leaks.

The checkpoint replay folds queries into a private ``set`` (and the
arrival-order fold folds arrivals into one).  Whatever leaves the
replica — a ``read`` answer, ``local_state()``, a checkpoint, the GC base,
a state-transfer image — is a frozen snapshot: never the working object,
never changed by what the replica does next, and still a ``frozenset`` on
the wire and in the journal.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto.wire import encode_value, state_transfer
from repro.specs import GSetSpec, SetSpec
from repro.specs import set_spec as S
from tests.counts import rollbacks


def tips(r):
    """The working objects the replica owns right now."""
    replay = r.replay
    if replay.name == "fold" or replay._owned:
        return [replay._state]
    return []


def checkpoints(r):
    return list(r.replay._ckpts) if r.replay.name == "checkpoint" else []


def outputs(r):
    """Everything a caller, a checkpoint or a peer can get hold of."""
    out = [("read", r.on_query("read")), ("local_state", r.local_state())]
    out += [(f"checkpoint@{i}", state) for i, state in checkpoints(r)]
    if isinstance(r, GarbageCollectedReplica):
        out.append(("base", r.durable_gc_state()["base"]))
        out.append(("state_transfer", state_transfer(r)))
    return out


class Witness:
    """Captured outputs, each with a copy to compare against later."""

    def __init__(self):
        self.seen = []

    def capture(self, r, step):
        for label, value in outputs(r):
            assert not isinstance(value, set), (step, label)
            self.seen.append((f"{step}/{label}", value, _copy(value)))
        self.check(r)

    def check(self, r):
        owned = tips(r)
        for label, value, copied in self.seen:
            assert all(value is not tip for tip in owned), label
            assert value == copied, label


def _copy(value):
    # a state-transfer payload is text: immutable already
    return set(value) if isinstance(value, frozenset) else value


REPLICAS = {
    "checkpointed": lambda: UniversalReplica(
        0, 2, SetSpec(), replay="checkpoint", checkpoint_interval=4
    ),
    "gc": lambda: GarbageCollectedReplica(
        0, 2, SetSpec(), checkpoint_interval=4, gc_interval=10_000
    ),
    "fast-path": lambda: GarbageCollectedReplica(0, 2, GSetSpec(), gc_interval=10_000),
}


@pytest.mark.parametrize("kind", list(REPLICAS))
def test_no_output_is_the_tip_or_changes_afterwards(kind):
    r = REPLICAS[kind]()
    fold = r.replay.name == "fold"
    assert fold == (kind == "fast-path")
    delete = S.insert if fold else S.delete
    w = Witness()
    for i in range(10):
        r.on_update(S.insert(i))
    w.capture(r, "updates")
    for i in range(7):
        r.on_update(delete(i) if i % 2 else S.insert(100 + i))
        r.on_query("contains", (i,))
    w.capture(r, "more updates and queries")

    r.on_message(1, (3, 1, S.insert("late")))  # sorts under the tip
    w.check(r)
    assert fold or rollbacks(r) == 1
    w.capture(r, "late message")

    if isinstance(r, GarbageCollectedReplica):
        r.on_message(1, ("hb", 12, 1))
        assert r.collect_garbage() > 0
        w.check(r)
        w.capture(r, "collection")
        assert r.install_gc_state(base=frozenset(range(200, 220)), clock_floor=30)
        w.check(r)
        for i in range(5):
            r.on_update(S.insert(300 + i))
        w.capture(r, "state install")

    for i in range(9):
        r.on_update(S.insert(400 + i))
        r.on_query("contains", (400,))
    w.check(r)
    assert r.on_query("read") == r.local_state()


@pytest.mark.parametrize("kind", list(REPLICAS))
def test_the_wire_and_the_journal_see_a_frozenset(kind):
    r = REPLICAS[kind]()
    for i in range(10):
        r.on_update(S.insert(i))
    r.on_query("contains", (0,))
    assert encode_value(r.local_state())["@"] == "frozenset"
    for _, state in checkpoints(r):
        assert type(state) is frozenset
