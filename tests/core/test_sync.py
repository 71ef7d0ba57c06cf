"""Tests for the anti-entropy v2 protocol: digests, paging, state transfer.

Covers the wire codec in :mod:`repro.core.sync`, the replica-side
behaviour in :class:`~repro.core.universal.UniversalReplica` /
:class:`~repro.core.checkpoint.GarbageCollectedReplica`, and the three
divergence bugs this protocol fixes (snapshot losing the compacted
prefix, the unbounded known set, and silently-incomplete sync responses
for sub-floor gaps).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import payload_size_bits
from repro.core import universal
from repro.core.adt import Update
from repro.core.checkpoint import GarbageCollectedReplica, StabilityViolation
from repro.core.sync import (
    SYNC_DONE,
    SYNC_REQ,
    SYNC_RESP,
    SYNC_STATE,
    StateTransferRequired,
    SyncDigest,
    SyncProtocolError,
    coalesce,
    first_gap,
    pages,
    parse_sync_request,
    runs_above,
)
from repro.core.universal import UniversalReplica
from repro.proto.wire import (
    REPLICA_FORMAT_V3,
    base_record,
    chain_record,
    genesis_digest,
    meta_record,
    replica_snapshot,
    restore_replica,
    state_transfer,
)
from repro.sim import Cluster
from repro.specs import SetSpec
from repro.specs import set_spec as S
from tests.counts import collected

SPEC = SetSpec()


def gc_cluster(n=3, gc_interval=10_000, **kw):
    """A FIFO cluster of GC replicas; GC is triggered manually."""
    kw.setdefault("fifo", True)
    return Cluster(
        n,
        lambda pid, total: GarbageCollectedReplica(
            pid, total, SPEC, gc_interval=gc_interval, **kw.pop("replica_kw", {})
        ),
        **kw,
    )


def gossip(c: Cluster, pids=None) -> None:
    """One update + heartbeat round, fully delivered."""
    for pid in pids if pids is not None else range(c.n):
        c.update(pid, S.insert(pid))
    c.run()
    for pid in pids if pids is not None else range(c.n):
        c.network.broadcast(pid, c.replicas[pid].heartbeat(), c.now)
    c.run()


class TestCoalesce:
    def test_empty(self):
        assert coalesce([]) == ()

    def test_single_run(self):
        assert coalesce([3, 1, 2]) == ((1, 3),)

    def test_gaps_split_runs(self):
        assert coalesce([1, 2, 5, 7, 8, 9]) == ((1, 2), (5, 5), (7, 9))

    def test_duplicates_collapse(self):
        assert coalesce([4, 4, 5]) == ((4, 5),)


MALFORMED_REQUESTS = {
    "unsorted-runs": (SYNC_REQ, 1, (0, 0), ((), ((5, 5), (1, 2))), False),
    "overlapping-runs": (SYNC_REQ, 1, (0, 0), ((), ((1, 3), (3, 4))), False),
    "empty-run": (SYNC_REQ, 1, (0, 0), ((), ((4, 2),)), False),
    "negative-clock": (SYNC_REQ, 1, (0, 0), ((), ((-1, 2),)), False),
    "negative-floor": (SYNC_REQ, 1, (0, -3), ((), ()), False),
    "float-floor": (SYNC_REQ, 1, (0, 1.5), ((), ()), False),
    "string-clock": (SYNC_REQ, 1, (0, 0), ((), (("1", 2),)), False),
    "bool-clock": (SYNC_REQ, 1, (0, 0), ((), ((True, 2),)), False),
    "three-ended-run": (SYNC_REQ, 1, (0, 0), ((), ((1, 2, 3),)), False),
    "run-not-a-pair": (SYNC_REQ, 1, (0, 0), ((), (7,)), False),
    "runs-not-a-list": (SYNC_REQ, 1, (0, 0), ((), None), False),
    "requester-not-an-int": (SYNC_REQ, "1", (0, 0), ((), ()), False),
    "requester-out-of-range": (SYNC_REQ, 2, (0, 0), ((), ()), False),
    "requester-negative": (SYNC_REQ, -1, (0, 0), ((), ()), False),
}


@st.composite
def digests(draw):
    """A digest as a replica advertises it (runs clipped above non-zero
    floors) or as a peer might send it (floor 0, a run from clock 0)."""
    n = draw(st.integers(1, 4))
    floors, intervals = [], []
    for _ in range(n):
        runs = coalesce(draw(st.sets(st.integers(0, 3_000), max_size=40)))
        floor = draw(st.sampled_from([0, 0, draw(st.integers(0, 3_000))]))
        floors.append(floor)
        intervals.append(tuple(runs_above(runs, floor)) if floor else runs)
    return SyncDigest(tuple(floors), tuple(intervals), draw(st.booleans()))


class TestSyncDigest:
    @given(digest=digests(), requester=st.integers(0, 64))
    @settings(max_examples=300, deadline=None)
    def test_request_bits_is_the_priced_payload(self, digest, requester):
        # payload_size_bits stays the definition of the pinned count
        payload = digest.request_payload(requester)
        assert digest.request_bits(requester) == payload_size_bits(payload)

    def test_from_uids_keeps_only_above_floor(self):
        d = SyncDigest.from_uids(
            {(1, 0), (2, 0), (7, 0), (3, 1)}, 2, floors=(2, 0)
        )
        assert d.intervals == (((7, 7),), ((3, 3),))

    def test_covers_floor_and_runs(self):
        d = SyncDigest(floors=(4, 0), intervals=(((7, 9),), ()))
        assert d.covers(3, 0) and d.covers(4, 0)
        assert not d.covers(5, 0)
        assert d.covers(8, 0)
        assert not d.covers(10, 0)
        assert not d.covers(1, 1)

    def test_covers_agrees_with_a_linear_scan_of_the_runs(self):
        # the bisect must answer exactly what scanning every run answers
        rng = np.random.default_rng(11)
        clocks = {int(c) for c in rng.integers(1, 400, size=150)}
        d = SyncDigest.from_uids({(c, 0) for c in clocks}, 1, floors=(40,))
        assert len(d.intervals[0]) > 20
        for cl in range(0, 420):
            scanned = cl <= 40 or any(lo <= cl <= hi for lo, hi in d.intervals[0])
            assert d.covers(cl, 0) == scanned == (cl <= 40 or cl in clocks)

    def test_covers_bisects_instead_of_scanning(self):
        d = SyncDigest.from_uids({(c, 0) for c in range(1, 4001, 2)}, 1)
        assert len(d.intervals[0]) == 2000
        touched = []

        class Counted(tuple):
            """A run that records every comparison, unpacking or index."""

            def __lt__(self, other):
                touched.append(self)
                return tuple.__lt__(self, other)

            def __iter__(self):
                touched.append(self)
                return tuple.__iter__(self)

            def __getitem__(self, i):
                touched.append(self)
                return tuple.__getitem__(self, i)

        counted = SyncDigest(
            floors=d.floors,
            intervals=(tuple(Counted(run) for run in d.intervals[0]),),
        )
        assert counted.covers(3999, 0) and not counted.covers(3998, 0)
        assert len(touched) <= 2 * 13  # ~log2(2000) runs per lookup, not 2000

    def test_coverage_floor_extended_by_adjacent_runs(self):
        d = SyncDigest(floors=(4, 0), intervals=(((5, 6), (8, 9)), ()))
        # 5..6 touches the floor and extends it; 8..9 is past a gap at 7.
        assert d.coverage_floor(0) == 6
        assert d.coverage_floor(1) == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SyncProtocolError):
            SyncDigest(floors=(0,), intervals=((), ()))

    def test_request_payload_round_trip(self):
        d = SyncDigest.from_uids(
            {(5, 0), (6, 0), (9, 1)}, 2, floors=(4, 2), accepts_state=True
        )
        requester, parsed = parse_sync_request(d.request_payload(1))
        assert requester == 1
        assert parsed == d

    def test_v1_known_set_is_rejected(self):
        # the frozenset-of-every-id dialect is gone, not upgraded
        known = frozenset({(1, 0), (2, 1), (3, 1)})
        with pytest.raises(SyncProtocolError, match="malformed sync request"):
            parse_sync_request((SYNC_REQ, 0, known))

    @pytest.mark.parametrize("make", [
        lambda: UniversalReplica(0, 3, SPEC),
        lambda: GarbageCollectedReplica(0, 3, SPEC),
    ], ids=["universal", "gc"])
    def test_wrong_process_count_rejected(self, make):
        # Regression: a well-formed digest over fewer processes than the
        # replica runs used to die with a raw IndexError in covers().
        r = make()
        r.on_message(2, (1, 2, S.insert(5)))  # an update authored by pid 2
        with pytest.raises(SyncProtocolError, match="digests 1 processes"):
            r.on_message(1, (SYNC_REQ, 1, (0,), ((),), False))
        assert not r.outbox  # nothing was served

    def test_malformed_request_rejected(self):
        with pytest.raises(SyncProtocolError):
            parse_sync_request(("something-else", 0, frozenset()))
        with pytest.raises(SyncProtocolError):
            parse_sync_request((SYNC_REQ, 0))

    @pytest.mark.parametrize("make", [
        lambda: UniversalReplica(0, 2, SPEC),
        lambda: GarbageCollectedReplica(0, 2, SPEC),
    ], ids=["universal", "gc"])
    @pytest.mark.parametrize("request_", list(MALFORMED_REQUESTS.values()),
                             ids=list(MALFORMED_REQUESTS))
    def test_a_misshapen_digest_is_refused_and_changes_nothing(
        self, make, request_
    ):
        # covers() bisects and the serve compares runs on the promise that
        # they are sorted and disjoint: a digest breaking it would page
        # whatever its order made covers() answer.
        r = make()
        for cl in (1, 2, 5):
            r.on_message(1, (cl, 1, S.insert(cl)))
        log = list(r.updates)
        with pytest.raises(SyncProtocolError):
            r.on_message(1, request_)
        assert r.updates == log and not r.outbox


class TestPages:
    def test_splits_into_bounded_batches(self):
        batches = list(pages(list(range(10)), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [x for b in batches for x in b] == list(range(10))

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            list(pages([1], 0))


def _image_payload(pid, records):
    """A ``SYNC_STATE`` carrying ``records`` on ``pid``'s digest chain."""
    digest, stamped = genesis_digest(pid), []
    for rec in records:
        digest, rec, _ = chain_record(digest, rec)
        stamped.append(rec)
    return (SYNC_STATE, json.dumps({
        "format": REPLICA_FORMAT_V3, "pid": pid, "complete": True,
        "digest": digest.hex(), "records": stamped,
    }))


def _sender():
    """Process 2 of 3, holding a compacted base."""
    r = GarbageCollectedReplica(2, 3, SPEC)
    r.install_gc_state(base=frozenset({1}), clock_floor=7, frontier=(7, 2))
    return r


def _base_without(field):
    gc = _sender().durable_gc_state()
    rec = base_record(1, gc)
    del rec[field]
    return _image_payload(2, [meta_record(2), rec])


def _relinked(payload):
    doc = json.loads(payload[1])
    doc["records"][1]["d"] = "0" * 16
    return (SYNC_STATE, json.dumps(doc))


MALFORMED = {
    "not-a-string": lambda: (SYNC_STATE, {"base": frozenset({99})}),
    "not-json": lambda: (SYNC_STATE, "{not json"),
    "foreign-format": lambda: (SYNC_STATE, json.dumps({"format": "x", "pid": 2})),
    "broken-link": lambda: _relinked(state_transfer(_sender())),
    "other-pid": lambda: state_transfer(GarbageCollectedReplica(1, 3, SPEC)),
    "whole-image": lambda: (SYNC_STATE, replica_snapshot(_sender())),
    "meta-only": lambda: _image_payload(2, [meta_record(2)]),
    "no-base": lambda: _base_without("base"),
    "no-clock-floor": lambda: _base_without("clock_floor"),
    "no-frontier": lambda: _base_without("frontier"),
}

#: The refusal table's two receivers: a GC replica refuses every malformed
#: handoff, and a replica that keeps no base refuses even a well-formed one.
REFUSALS = {
    **{key: (GarbageCollectedReplica, make) for key, make in MALFORMED.items()},
    **{
        f"plain-{key}": (UniversalReplica, make)
        for key, make in [
            *MALFORMED.items(), ("well-formed", lambda: state_transfer(_sender()))
        ]
    },
}


class TestStateTransferImage:
    """A ``SYNC_STATE`` is the sender's ``[meta, base]`` journal image."""

    def test_round_trip(self):
        sender = _sender()
        payload = state_transfer(sender)
        assert payload[0] == SYNC_STATE and isinstance(payload[1], str)
        r = GarbageCollectedReplica(0, 3, SPEC)
        r.on_message(2, payload)
        assert (r._base, r.gc_clock_floor, r._gc_frontier) == (
            frozenset({1}), 7, (7, 2))
        assert r.local_state() == sender.local_state()

    @pytest.mark.parametrize(
        "receiver,make", REFUSALS.values(), ids=REFUSALS.keys()
    )
    def test_malformed_rejected(self, receiver, make):
        r = receiver(0, 3, SPEC)
        r.on_update(S.insert(1))

        def shape():
            return (r.local_state(), list(r.updates), r._sync_digest().floors,
                    r.clock.value, list(r.outbox))

        before = shape()
        refused = "refused" if receiver is GarbageCollectedReplica else None
        with pytest.raises(SyncProtocolError, match=refused):
            r.on_message(2, make())
        assert shape() == before

    def test_tampered_handoff_refused(self):
        # a base record edited after chaining: every link still holds,
        # the final digest does not
        doc = json.loads(state_transfer(_sender())[1])
        doc["records"][1]["clock_floor"] = 8
        r = GarbageCollectedReplica(0, 3, SPEC)
        with pytest.raises(SyncProtocolError, match="rolling digest"):
            r.on_message(2, (SYNC_STATE, json.dumps(doc)))
        assert r.gc_clock_floor == 0

    def test_untagged_handoff_refused_and_installs_nothing(self):
        # an image without its final digest, and the bare fields a
        # handoff used to be, are both refused before anything installs
        r = GarbageCollectedReplica(0, 3, SPEC)
        r.on_update(S.insert(1))
        before = (r.local_state(), r.gc_clock_floor, r.clock.value)
        doc = json.loads(state_transfer(_sender())[1])
        del doc["digest"]
        gc = _sender().durable_gc_state()
        for payload in [(SYNC_STATE, json.dumps(doc)), (SYNC_STATE, 2, gc)]:
            with pytest.raises(SyncProtocolError, match="refused"):
                r.on_message(2, payload)
        assert (r.local_state(), r.gc_clock_floor, r.clock.value) == before


class TestPagedSync:
    def test_crash_repair_ships_bounded_pages(self):
        c = Cluster(
            3,
            lambda p, n: UniversalReplica(p, n, SPEC, sync_page_size=4),
            fifo=True,
        )
        c.crash(2)
        for i in range(10):
            c.update(0, S.insert(i))
        c.run()
        c.recover(2)
        c.run()
        assert c.query(2, "read") == c.query(0, "read")
        shipped = c.metrics.total("repro_sync_updates_shipped_total")
        pages_sent = c.metrics.total("repro_sync_pages_sent_total")
        assert shipped >= 10
        # Every page below the bound: 10+ entries need at least ceil(10/4).
        assert pages_sent >= 3

    def test_redundant_sync_entries_counted_not_reapplied(self):
        c = Cluster(2, lambda p, n: UniversalReplica(p, n, SPEC), fifo=True)
        c.update(0, S.insert(1))
        c.run()
        # Both replicas know everything; a sync round ships nothing new,
        # but hand-deliver a duplicate page to exercise the skip path.
        r1 = c.replicas[1]
        entry = c.replicas[0].updates[0]
        r1.on_message(0, ("sync-resp", (entry,)))
        assert c.metrics.total("repro_sync_redundant_updates_total") == 1
        assert len(r1.updates) == 1

    def test_sync_request_metrics_counted(self):
        c = Cluster(2, lambda p, n: UniversalReplica(p, n, SPEC))
        c.replicas[0].sync_request()
        assert c.metrics.total("repro_sync_requests_total") == 1
        assert c.metrics.total("repro_sync_request_bits_total") > 0


class TestServeSync:
    """``_serve_sync`` skips the log prefix the requester's floors cover
    — a pure speed-up: the pages must be what a full scan ships."""

    def responder(self, n_updates=300):
        r = GarbageCollectedReplica(0, 3, SPEC, gc_interval=10_000)
        for i in range(n_updates):
            if i % 3:
                r.on_update(S.insert(i))
            else:
                r.on_message(1, (r.clock.value + 1, 1, S.insert(i)))
        return r

    def serve(self, r, digest, monkeypatch=None):
        calls = []
        if monkeypatch is not None:
            real = SyncDigest.covers
            monkeypatch.setattr(
                SyncDigest, "covers",
                lambda self, cl, j: calls.append((cl, j)) or real(self, cl, j),
            )
        r._serve_sync(2, digest)
        sent = [payload for _dst, payload in r.outbox]
        if digest.accepts_state:  # the round's marker comes last
            assert sent.pop() == (SYNC_DONE, r.heard[r.pid])
        shipped = [s for payload in sent for s in payload[1]]
        r.outbox.clear()
        return shipped, calls

    @pytest.mark.parametrize("floors", [
        (0, 0, 0), (120, 80, 0), (80, 120, 500), (10_000, 10_000, 0),
    ])
    def test_pages_equal_the_full_scan(self, floors):
        r = self.responder()
        known_above = {(cl, j) for cl, j, _ in r.updates[200:260:2]}
        digest = SyncDigest.from_uids(known_above, 3, floors=floors)
        shipped, _ = self.serve(r, digest)
        assert shipped == [
            s for s in r.updates if not digest.covers(s[0], s[1])
        ]

    def test_author_with_nothing_in_the_log_does_not_pin_the_scan(
        self, monkeypatch
    ):
        # mesh-degraded: the dead peer's floor is 0 and it authored
        # nothing; only what lies above the live authors' floors is looked at
        r = self.responder()
        floor = r.updates[-10][0]
        digest = SyncDigest(floors=(floor, floor, 0), intervals=((), (), ()))
        shipped, calls = self.serve(r, digest, monkeypatch)
        assert [s[0] for s in shipped] == [s[0] for s in r.updates[-9:]]
        assert len(calls) <= 9

    @pytest.mark.parametrize("n_updates", [300, 3000])
    @pytest.mark.parametrize("whose", ["gc", "plain"])
    def test_a_digest_equal_to_the_responders_own_scans_nothing(
        self, n_updates, whose, monkeypatch
    ):
        # sim-protocol: replicas that agree ship nothing, so the serve may
        # not probe covers() once per logged id to find that out
        r = self.responder(n_updates)
        digest = (
            r._sync_digest() if whose == "gc"
            else SyncDigest.from_runs(r._runs, (0, 0, 0))  # Algorithm 1's
        )
        shipped, calls = self.serve(r, digest, monkeypatch)
        assert shipped == [] and calls == []
        assert not r._digest_claims_unknown(digest)

    def test_the_scan_starts_at_the_lowest_gap(self, monkeypatch):
        r = self.responder()
        lost = r.updates[250]
        digest = SyncDigest.from_uids(
            (k for k in r._keys if k != (lost[0], lost[1])), 3
        )
        shipped, calls = self.serve(r, digest, monkeypatch)
        assert shipped == [lost]
        assert len(calls) == len(r.updates) - 250

    def test_collected_authors_stop_counting(self):
        r = GarbageCollectedReplica(0, 2, SPEC, gc_interval=10_000)
        r.on_message(1, (1, 1, S.insert("a")))
        r.on_update(S.insert("b"))
        assert r._runs == [[(2, 2)], [(1, 1)]]
        r.on_message(1, ("hb", 1, 1))
        assert r.collect_garbage() == 1  # (1, 1) folded away
        assert r._runs == [[(2, 2)], []]
        # author 1's floor of 0 no longer pins the serve: the state
        # transfer repairs it, and no page follows
        r._serve_sync(1, SyncDigest((2, 0), ((), ()), accepts_state=True))
        assert [payload[0] for _dst, payload in r.outbox] == [
            SYNC_STATE, SYNC_DONE,
        ]


class TestGCDigest:
    def test_floors_come_from_heard(self):
        c = gc_cluster()
        for _ in range(3):
            gossip(c)
        r0 = c.replicas[0]
        d = r0._sync_digest()
        assert d.accepts_state
        assert d.floors == tuple(r0.heard)
        assert all(f > 0 for f in d.floors)

    def test_known_pruned_below_floor(self):
        # Satellite regression: before v2 the known set (dedup structure)
        # grew O(total updates) forever, making GC's bound cosmetic.
        c = gc_cluster()
        for _ in range(5):
            gossip(c)
        r0 = c.replicas[0]
        before = r0.known_ids_tracked
        r0.collect_garbage()
        assert r0.gc_clock_floor > 0
        assert r0.known_ids_tracked < before
        assert all(uid[0] > r0.gc_clock_floor for uid in r0._known)

    def test_covers_uid_implicit_below_floor(self):
        c = gc_cluster()
        for _ in range(3):
            gossip(c)
        r0 = c.replicas[0]
        r0.collect_garbage()
        assert r0._covers_uid(1, 1)  # folded, pruned, still covered
        assert not r0._covers_uid(r0.clock.value + 10, 1)


class TestStateTransfer:
    def _collected_cluster(self):
        c = gc_cluster()
        for _ in range(4):
            gossip(c)
        for r in c.replicas:
            r.collect_garbage()
        assert all(r.gc_clock_floor > 0 for r in c.replicas)
        return c

    def test_sub_floor_gap_without_consent_is_detected(self):
        # Satellite regression: a requester missing sub-floor updates must
        # not be answered with whatever is still in the live log — an
        # incomplete response and silent divergence.  The gap is *detected*.
        c = self._collected_cluster()
        r0 = c.replicas[0]
        # claims nothing, and cannot install a base state
        request = SyncDigest.from_uids((), c.n, accepts_state=False)
        with pytest.raises(StateTransferRequired):
            r0.on_message(1, request.request_payload(1))

    def test_consenting_requester_gets_state(self):
        c = self._collected_cluster()
        r0 = c.replicas[0]
        empty = SyncDigest.from_uids((), c.n, accepts_state=True)
        r0.on_message(1, empty.request_payload(1))
        sent = [payload for dst, payload in r0.outbox if dst == 1]
        assert any(p[0] == "sync-state" for p in sent)
        assert c.metrics.total("repro_sync_state_transfers_total") == 1

    def test_install_gc_state_adopts_floor(self):
        c = self._collected_cluster()
        r0, r1 = c.replicas[0], c.replicas[1]
        gc = r0.durable_gc_state()
        fresh = GarbageCollectedReplica(1, c.n, SPEC)
        assert fresh.install_gc_state(
            base=gc["base"], clock_floor=gc["clock_floor"],
            frontier=gc["frontier"],
        )
        assert fresh.gc_clock_floor == r0.gc_clock_floor
        assert fresh.clock.value >= gc["clock_floor"]
        assert all(h >= gc["clock_floor"] for h in fresh.heard)
        assert fresh.local_state() == r0._base

    @staticmethod
    def _handoff_and_boot(pid, n, payload, image):
        """What a fresh replica installing ``payload`` from ``pid`` holds,
        and what a fresh one booting ``image`` holds — the sender's image
        cut before its first entry: only the base record, which no fsync
        point truncates."""
        installed = GarbageCollectedReplica((pid + 1) % n, n, SPEC)
        installed.on_message(pid, payload)
        booted = GarbageCollectedReplica(pid, n, SPEC)
        restore_replica(booted, image)
        return [
            (r._base, r.gc_clock_floor, r._gc_frontier, r.local_state())
            for r in (installed, booted)
        ]

    def test_handoff_installs_what_a_boot_installs(self):
        r0 = self._collected_cluster().replicas[0]
        installed, booted = self._handoff_and_boot(
            0, 3, state_transfer(r0), replica_snapshot(r0, fsync_point=0)
        )
        assert installed == booted
        assert installed[:3] == (r0._base, r0.gc_clock_floor, r0._gc_frontier)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_handoff_of_the_gc_scenario_installs_what_a_boot_installs(
        self, seed, monkeypatch
    ):
        from repro.sim.fuzz import gc_state_transfer_scenario

        sent = []

        def recording(replica):
            payload = state_transfer(replica)
            image = replica_snapshot(replica, fsync_point=0)
            sent.append((replica.pid, replica.n, payload, image))
            return payload

        monkeypatch.setattr(universal, "state_transfer", recording)
        gc_state_transfer_scenario(seed)
        assert sent
        for pid, n, payload, image in sent:
            installed, booted = self._handoff_and_boot(pid, n, payload, image)
            assert installed == booted and installed[1] > 0

    def test_install_refuses_lower_floor(self):
        c = self._collected_cluster()
        r0 = c.replicas[0]
        floor = r0.gc_clock_floor
        assert not r0.install_gc_state(base=frozenset(), clock_floor=floor)
        assert r0.gc_clock_floor == floor
        assert r0._base != frozenset() or not r0.updates

    def test_covered_sync_entries_are_benign_duplicates(self):
        # A page may re-ship entries at or below the requester's floor
        # (the responder saw an older digest); they must be counted as
        # redundant, not raise StabilityViolation.
        c = self._collected_cluster()
        r0 = c.replicas[0]
        stale_entry = (1, 1, S.insert(1))
        r0._ingest_synced(1, stale_entry)
        assert c.metrics.total("repro_sync_redundant_updates_total") >= 1

    def test_direct_update_below_floor_still_violates(self):
        c = self._collected_cluster()
        r0 = c.replicas[0]
        with pytest.raises(StabilityViolation):
            r0.on_message(1, (1, 1, S.insert(1)))


class TestRecoveryRegression:
    def test_gc_crash_recover_converges(self):
        # Satellite regression: replica_snapshot lost _base/_gc_frontier/
        # heard, so GC past an update + crash + recover silently rewound
        # the collected prefix and the cluster diverged.
        c = gc_cluster()
        for _ in range(4):
            gossip(c)
        for r in c.replicas:
            r.collect_garbage()
        assert c.replicas[2].gc_clock_floor > 0
        assert collected(c.replicas[2]) > 0
        c.crash(2)
        c.recover(2)  # complete snapshot: pure codec round-trip
        c.run()
        c.anti_entropy()
        states = set(map(repr, c.states().values()))
        assert len(states) == 1
        # The recovered replica kept its compacted prefix.
        assert c.replicas[2].gc_clock_floor > 0

    def test_snapshot_round_trips_gc_state(self):
        c = gc_cluster()
        for _ in range(4):
            gossip(c)
        r2 = c.replicas[2]
        r2.collect_garbage()
        snap = replica_snapshot(r2)
        fresh = GarbageCollectedReplica(2, c.n, SPEC)
        restore_replica(fresh, snap)
        assert fresh.gc_clock_floor == r2.gc_clock_floor
        assert fresh._base == r2._base
        assert fresh._gc_frontier == r2._gc_frontier
        assert list(fresh.heard) == list(r2.heard)
        assert fresh.local_state() == r2.local_state()

    def test_gc_snapshot_needs_gc_capable_target(self):
        c = gc_cluster()
        for _ in range(4):
            gossip(c)
        r2 = c.replicas[2]
        r2.collect_garbage()
        snap = replica_snapshot(r2)
        with pytest.raises(ValueError, match="compacted"):
            restore_replica(UniversalReplica(2, c.n, SPEC), snap)

    def test_truncated_restore_freezes_own_heard(self):
        c = gc_cluster()
        for _ in range(2):
            gossip(c)
        for r in c.replicas:
            r.collect_garbage()
        for _ in range(2):
            gossip(c)  # live entries above the floor, lost below
        r2 = c.replicas[2]
        pre_crash_clock = r2.clock.value
        snap = replica_snapshot(r2, fsync_point=0)
        fresh = GarbageCollectedReplica(2, c.n, SPEC)
        restore_replica(fresh, snap)
        # The stored heard vector over-claims; the rewound one must not,
        # and the own column is frozen (the replica may have lost its own
        # updates) until a state transfer certifies a covering floor.
        assert fresh.heard[2] < pre_crash_clock
        assert fresh._own_suspect_below == pre_crash_clock
        frozen = fresh.heard[2]
        fresh.heartbeat()
        assert fresh.heard[2] == frozen
        fresh.install_gc_state(
            base=frozenset(), clock_floor=pre_crash_clock
        )
        assert fresh._own_suspect_below == 0

    def test_complete_restore_trusts_stored_heard(self):
        c = gc_cluster()
        for _ in range(3):
            gossip(c)
        r2 = c.replicas[2]
        snap = replica_snapshot(r2)  # complete: no truncation
        fresh = GarbageCollectedReplica(2, c.n, SPEC)
        restore_replica(fresh, snap)
        assert list(fresh.heard) == list(r2.heard)
        assert fresh._own_suspect_below == 0


@pytest.fixture
def digests_checked(monkeypatch):
    """After every log mutation at every replica — ``_insert`` and
    ``_drop_prefix`` are the only two — the maintained digest must be the
    one ``SyncDigest.from_uids`` rebuilds from the log's ids, value for
    value.  Returns the number of comparisons made."""
    count = [0]

    def check(r):
        assert r._known == set(r._keys)
        digest = r._sync_digest()
        assert digest == SyncDigest.from_uids(
            r._keys, r.n,
            floors=tuple(r.heard),
            accepts_state=r.accepts_state,
        )
        count[0] += 1

    for name in ("_insert", "_drop_prefix"):
        def checking(self, arg, _original=getattr(UniversalReplica, name)):
            _original(self, arg)
            check(self)

        monkeypatch.setattr(UniversalReplica, name, checking)
    return count


class TestIncrementalDigest:
    """The sync digest is maintained where ids become known and are
    folded away, never rebuilt: differential against ``from_uids``."""

    def test_any_arrival_order_leaves_the_coalesced_runs(self, digests_checked):
        rng = np.random.default_rng(7)
        clocks = [int(c) for c in rng.permutation(np.arange(1, 400))]
        r = UniversalReplica(0, 2, SPEC)
        for cl in clocks:
            if cl % 9:  # leave gaps, so runs split and later join
                r.on_message(1, (cl, cl % 2, S.insert(cl)))
        assert digests_checked[0] == len(r.updates) > 300
        assert r._runs == [
            list(coalesce(cl for cl, j in r._keys if j == author))
            for author in (0, 1)
        ]

    def test_chaos_schedules(self, digests_checked):
        # plain / lossy / duplicating networks, FIFO on and off, relayed
        # late inserts, crash and recover from truncated logs (load_log)
        from repro.sim.fuzz import chaos_smoke

        ticks = iter(range(100))
        out = chaos_smoke(
            budget_seconds=8.0, procs=3, ops=30, clock=lambda: float(next(ticks))
        )
        assert out["runs"] >= 6 and digests_checked[0] > 400

    @pytest.mark.parametrize("seed", range(4))
    def test_gc_collection_state_install_and_recovery(self, seed, digests_checked):
        from repro.sim.fuzz import gc_state_transfer_scenario

        gc_state_transfer_scenario(seed)
        assert digests_checked[0] > 50

    @pytest.mark.parametrize("seed", range(3))
    def test_the_default_node_replica_under_the_adversary(
        self, seed, digests_checked
    ):
        from repro.net.__main__ import make_factory
        from repro.sim.fuzz import AdversaryFuzzer

        c = Cluster(4, make_factory("set"), seed=seed)
        fz = AdversaryFuzzer(c, seed=seed, crash_budget=2, recover_probability=0.15)
        rng = np.random.default_rng(seed)
        script = [
            (int(rng.integers(4)), S.insert(int(rng.integers(6))))
            for _ in range(40)
        ]
        fz.run_workload(script, anti_entropy_rounds=5)
        states = list(c.states().values())
        assert all(s == states[0] for s in states)
        assert digests_checked[0] > 100

    def test_a_gc_digest_clips_the_run_that_straddles_a_floor(self):
        r = GarbageCollectedReplica(0, 2, SPEC, gc_interval=10_000)
        for cl in (3, 4, 5, 6, 9):
            r._ingest_synced(0, (cl, 1, S.insert(cl)))  # paged in: heard stays
        assert r._sync_digest().intervals == ((), ((3, 6), (9, 9)))
        r.on_message(1, ("hb", 4, 1))
        assert r._sync_digest() == SyncDigest(
            floors=(0, 4), intervals=((), ((5, 6), (9, 9))), accepts_state=True
        )


# -- the run comparison, against per-id definitions ------------------------------


@st.composite
def run_lists(draw, max_runs=8):
    """Sorted, disjoint runs; a gap of 0 makes two runs abut, which a
    peer's digest may do (only the maintained runs are maximal)."""
    runs, lo = [], draw(st.integers(0, 3))
    for gap, length in draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=max_runs
    )):
        lo += gap
        runs.append((lo, lo + length))
        lo += length + 1
    return runs


def clocks_of(runs):
    return {cl for lo, hi in runs for cl in range(lo, hi + 1)}


@st.composite
def split_runs(draw, clocks):
    """``clocks`` as sorted runs, some maximal ones cut where they abut."""
    out = []
    for lo, hi in coalesce(clocks):
        cut = draw(st.integers(lo, hi + 1))
        out += [r for r in ((lo, cut - 1), (cut, hi)) if r[0] <= r[1]]
    return tuple(out)


@st.composite
def served_replicas(draw, n=3):
    """A replica whose log took late inserts (and, on GC, a collected
    prefix under a floor that may straddle a run), and a digest that is
    partly its log, partly not, with floors anywhere."""
    ids = sorted(draw(st.sets(
        st.tuples(st.integers(1, 40), st.integers(0, n - 1)), max_size=60
    )))
    order = draw(st.permutations(ids))
    if draw(st.booleans()):
        r = GarbageCollectedReplica(0, n, SPEC, gc_interval=10_000)
        cut = draw(st.integers(0, len(order)))
        for cl, j in order[:cut]:
            r._ingest_synced(j, (cl, j, S.insert(cl)))
        r.install_gc_state(base=frozenset(), clock_floor=draw(st.integers(0, 30)))
        order = order[cut:]  # entries under the floor arrive as duplicates
    else:
        r = UniversalReplica(0, n, SPEC)
    for cl, j in order:
        r._ingest_synced(j, (cl, j, S.insert(cl)))
    dropped = draw(st.sets(st.sampled_from(ids))) if ids else set()
    extra = draw(st.sets(st.tuples(st.integers(1, 45), st.integers(0, n - 1))))
    claimed = (set(ids) - dropped) | extra
    digest = SyncDigest(
        floors=tuple(draw(st.integers(0, 45)) for _ in range(n)),
        intervals=tuple(
            draw(split_runs([cl for cl, k in claimed if k == j]))
            for j in range(n)
        ),
        accepts_state=True,
    )
    # the shape a digest has once it passed the wire's checks
    assert parse_sync_request(digest.request_payload(1))[1] == digest
    return r, digest


def reference_bits(payload):
    """``payload_size_bits`` as one recursive definition."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(payload.bit_length(), 1) + (1 if payload < 0 else 0)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * len(payload.encode("utf-8"))
    if isinstance(payload, Update):
        return reference_bits(payload.name) + reference_bits(payload.args)
    if isinstance(payload, (tuple, list)):
        return sum(reference_bits(x) for x in payload)
    return sum(reference_bits(k) + reference_bits(v) for k, v in payload.items())


SCALARS = (
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=4)
)
PAYLOADS = st.recursive(
    SCALARS | st.builds(Update, st.text(max_size=4), st.tuples(SCALARS, SCALARS)),
    lambda inner: (
        st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=3)
    ),
    max_leaves=24,
)


class TestRunComparison:
    """The serve and the counter-request check compare run lists instead
    of probing each id: they must answer what the per-id definitions
    (``SyncDigest.covers``, ``_covers_uid``) answer."""

    @settings(max_examples=300, deadline=None)
    @given(run_lists(), run_lists(), st.sampled_from(["other", "same", "tuple"]))
    def test_first_gap_is_the_lowest_clock_missing(self, runs, minus, shape):
        if shape == "same":
            minus = list(runs)
        elif shape == "tuple":
            minus = tuple(minus)
        missing = clocks_of(runs) - clocks_of(minus)
        assert first_gap(runs, minus) == (min(missing) if missing else None)

    @pytest.mark.parametrize("runs, minus, gap", [
        ([(3, 5)], [(1, 3)], 4),  # minus ends on the first clock
        ([(3, 5)], [(1, 2)], 3),  # minus ends just below
        ([(3, 5)], [(3, 3), (5, 5)], 4),
        ([(1, 3)], [(1, 5)], None),  # minus starts on the first clock
        ([(1, 3), (7, 9)], [(1, 3), (8, 9)], 7),
        ([(2, 2)], [], 2),
        ([], [(1, 1)], None),
    ])
    def test_first_gap_on_runs_that_abut_or_share_an_end(self, runs, minus, gap):
        assert first_gap(runs, minus) == gap

    @settings(max_examples=200, deadline=None)
    @given(served_replicas())
    def test_the_serve_ships_exactly_what_covers_misses(self, case):
        r, digest = case
        assert r._runs == [
            list(coalesce(cl for cl, k in r._keys if k == j)) for j in range(r.n)
        ]
        expected = [s for s in r.updates if not digest.covers(s[0], s[1])]
        r._serve_sync(1, digest)
        pages_sent = [p[1] for _dst, p in r.outbox if p[0] == SYNC_RESP]
        assert [s for page in pages_sent for s in page] == expected
        assert all(len(page) <= r.sync_page_size for page in pages_sent)

    @settings(max_examples=200, deadline=None)
    @given(served_replicas())
    def test_the_claims_check_equals_the_per_id_probe(self, case):
        r, digest = case
        assert r._digest_claims_unknown(digest) == any(
            not r._covers_uid(cl, j)
            for j, runs in enumerate(digest.intervals)
            for cl in clocks_of(runs)
        )

    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_payload_size_bits_equals_the_recursive_definition(self, payload):
        assert payload_size_bits(payload) == reference_bits(payload)
