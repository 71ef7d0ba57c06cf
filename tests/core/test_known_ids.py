"""A query's visibility set is an O(1) prefix view of the arrival list.

:class:`~repro.sim.replica.KnownIds` stands for the frozenset of ids a
query saw.  These tests hold it to that: against the frozenset a test
computes eagerly at each query, under every log mutation the replicas
have (local updates, late and new remote messages, collection, state
install, crash-recovery), however late the witness is claimed, and byte
for byte through the wire codec.  A retention count pins what a trace
keeps alive: one id list per collection, not one copy of the log per
query.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.proto.core import ProtocolCore
from repro.proto.wire import encode_payload
from repro.sim import Cluster
from repro.sim.replica import KnownIds
from repro.specs import SetSpec
from repro.specs import set_spec as S
from tests.core.test_query_cost import ids

SPEC = SetSpec()
N = 3

FACTORIES = {
    "naive": lambda p, n: UniversalReplica(p, n, SPEC, replay="naive"),
    "checkpoint": lambda p, n: UniversalReplica(p, n, SPEC, replay="checkpoint"),
    "gc": lambda p, n: GarbageCollectedReplica(
        p, n, SPEC, gc_interval=10_000
    ),
}

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["update", "late", "new", "query", "claim", "heartbeat",
             "collect", "install", "recover"]
        ),
        st.integers(1, N - 1),  # a remote author
        st.integers(0, 5),  # a clock offset / truncation depth
    ),
    min_size=5,
    max_size=80,
)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORIES)), ops=OPS)
    def test_every_claimed_view_is_the_eager_frozenset(self, kind, ops):
        core = ProtocolCore(0, N, FACTORIES[kind])
        #: per remote author, the highest clock it has sent or claimed:
        #: its next message is stamped above it (FIFO, Lamport order).
        sent = [0] * N
        pending = None  # the eager set of an unclaimed query witness
        claimed: list[tuple[dict, frozenset]] = []

        def claim() -> None:
            nonlocal pending
            meta = core.witness_meta()
            assert isinstance(meta["visible"], KnownIds)
            assert meta["visible"] == pending
            claimed.append((meta, pending))
            pending = None

        for op, j, d in ops:
            r = core.replica
            if op == "update":
                core.submit(S.insert(d))
                pending = None  # superseded
            elif op in ("late", "new"):
                # "late" sorts below the log's top when the clock allows
                cl = sent[j] + 1 + d if op == "late" else (
                    max(sent[j], r.clock.value) + 1
                )
                sent[j] = cl
                core.deliver(j, (cl, j, S.insert(-cl)))
            elif op == "query":
                core.query("read")
                pending = ids(r)
            elif op == "claim" and pending is not None:
                claim()
            elif op == "heartbeat" and kind == "gc":
                for k in range(1, N):  # every remote author: heard moves
                    sent[k] += d
                    core.deliver(k, (r.HEARTBEAT, sent[k], k))
            elif op == "collect" and kind == "gc":
                r.collect_garbage()
            elif op == "install" and kind == "gc":
                floor = r.gc_clock_floor + d
                r.install_gc_state(base=frozenset(), clock_floor=floor)
                sent = [max(s, floor) for s in sent]
            elif op == "recover":
                keep = max(0, len(r.updates) - d) if d % 2 else None
                core.recover(core.snapshot(fsync_point=keep))
                pending = None  # a rebuilt replica has no last operation
        if pending is not None:
            claim()
        # Every view still reads what its query saw, whatever came after.
        for meta, eager in claimed:
            assert meta["visible"] == eager and len(meta["visible"]) == len(eager)
            assert encode_payload(meta) == encode_payload(
                {**meta, "visible": eager}
            )


class TestKnownIds:
    def test_a_view_is_the_frozenset_of_its_prefix(self):
        ids = [(3, 1), (1, 0), (2, 2)]
        view = KnownIds(ids, 2)
        eager = frozenset({(3, 1), (1, 0)})
        assert view == eager and eager == view and hash(view) == hash(eager)
        assert (1, 0) in view and (2, 2) not in view and len(view) == 2
        assert view | {(2, 2)} == frozenset(ids)
        assert type(view & eager) is frozenset
        ids.append((4, 0))
        assert view == eager  # appends never reach an earlier prefix

    def test_quiescent_captures_share_one_view(self):
        ids = [(1, 0)]
        first = KnownIds.whole(ids, None)
        assert KnownIds.whole(ids, first) is first
        ids.append((2, 0))
        second = KnownIds.whole(ids, first)
        assert second is not first and len(second) == 2 and len(first) == 1
        assert KnownIds.whole(list(ids), second) is not second

    def test_a_view_taken_before_a_cut_still_walks_its_ids(self):
        # Equality compares lengths first and a view's length is fixed,
        # so walk the ids: a list changed in place at the cut would be
        # read through a view that still reports 6.
        r = GarbageCollectedReplica(0, N, SPEC, gc_interval=10_000)
        for i in range(6):
            r.on_update(S.insert(i))
        r.on_query("read")
        seen = [(cl, j) for cl, j, _ in r.updates]
        for j in (1, 2):
            r.on_message(j, ("hb", 4, j))
        assert r.collect_garbage() == 4
        assert list(r.witness_meta()["visible"]) == seen


class TestRetention:
    """What a trace of claimed witnesses keeps alive, counted."""

    QUERIES = 500

    def test_a_trace_references_one_id_list_per_collection(self):
        c = Cluster(N, FACTORIES["gc"], seed=3, fifo=True)
        collections = [0] * N
        for i in range(self.QUERIES):
            pid = i % N
            c.update(pid, S.insert(i % 17))
            c.query(pid, "read")
            if i % 10 == 9:
                c.run()
                for p in range(N):
                    c.heartbeat(p)
                c.run()
            if i % 50 == 49:
                for p in range(N):
                    collections[p] += c.replicas[p].collect_garbage() > 0
        assert min(collections) >= 5  # the floor moved: lists were rebound
        lists: dict[int, set[int]] = {p: set() for p in range(N)}
        for rec in c.trace.queries():
            view = rec.meta["visible"]
            assert isinstance(view, KnownIds)
            lists[rec.pid].add(id(view._ids))
        for p in range(N):
            assert len(lists[p]) <= collections[p] + 1

