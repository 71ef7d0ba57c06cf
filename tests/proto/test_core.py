"""ProtocolCore: events in, effects out, no semantics added.

These tests pin the sans-io contract — effect shapes, ordering, the
zero-allocation hot path, and crash-recovery through the durable image —
without any backend in the loop: that is the point of the layer.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.sync import SyncProtocolError
from repro.core.universal import UniversalReplica
from repro.proto import (
    Broadcast,
    CrashRecovered,
    LinkEstablished,
    LinkLost,
    MessageReceived,
    Persist,
    ProtocolCore,
    QueryAnswered,
    QuerySubmitted,
    Send,
    SyncTick,
    Timer,
    UpdateSubmitted,
)
from repro.proto.effects import ONLY_PERSIST_MESSAGE
from repro.proto.wire import read_image
from repro.specs.set_spec import SetSpec, insert


def make_core(pid: int = 0, n: int = 3) -> ProtocolCore:
    spec = SetSpec()
    return ProtocolCore(pid, n, lambda p, k: UniversalReplica(p, k, spec))


def make_gc_core(pid: int = 0, n: int = 3) -> ProtocolCore:
    spec = SetSpec()
    return ProtocolCore(
        pid, n, lambda p, k: GarbageCollectedReplica(p, k, spec)
    )


class TestSubmit:
    def test_update_broadcasts_then_persists(self):
        core = make_core()
        effects = core.submit(insert(1))
        kinds = [type(e) for e in effects]
        assert kinds == [Broadcast, Persist]
        assert effects[-1].reason == "update"

    def test_broadcast_carries_the_wire_triple(self):
        core = make_core()
        (bcast, _) = core.submit(insert(7))
        clock, pid, update = bcast.payload
        assert (clock, pid) == (1, 0)
        assert update == insert(7)

    def test_state_advances_locally(self):
        core = make_core()
        core.submit(insert(1))
        core.submit(insert(2))
        assert core.local_state() == {1, 2}


class TestDeliver:
    def test_quiescent_delivery_returns_the_shared_tuple(self):
        a, b = make_core(0), make_core(1)
        (bcast, _) = a.submit(insert(1))
        effects = b.deliver(0, bcast.payload)
        # identity, not equality: the hot path must not allocate
        assert effects is ONLY_PERSIST_MESSAGE
        assert b.local_state() == {1}

    def test_handle_and_deliver_agree(self):
        a = make_core(0)
        (bcast, _) = a.submit(insert(1))
        b1, b2 = make_core(1), make_core(1)
        assert b1.handle(MessageReceived(0, bcast.payload)) is ONLY_PERSIST_MESSAGE
        assert b2.deliver(0, bcast.payload) is ONLY_PERSIST_MESSAGE
        assert b1.local_state() == b2.local_state() == {1}


class TestQuery:
    def test_query_answers_without_effects(self):
        core = make_core()
        core.submit(insert(4))
        output, effects = core.query("read")
        assert output == {4}
        assert effects == ()

    def test_handle_prepends_query_answered(self):
        core = make_core()
        core.submit(insert(4))
        effects = core.handle(QuerySubmitted("contains", (4,)))
        assert isinstance(effects[0], QueryAnswered)
        assert effects[0].output is True


class TestSyncTick:
    def test_sync_emits_one_broadcast(self):
        core = make_core()
        effects = core.sync_tick()
        assert [type(e) for e in effects] == [Broadcast]

    def test_handle_dispatches_sync_tick(self):
        core = make_core()
        assert [type(e) for e in core.handle(SyncTick())] == [Broadcast]

    def test_heartbeat_unsupported_is_a_noop(self):
        core = make_core()  # plain UniversalReplica: no heartbeat dialect
        assert core.sync_tick("heartbeat") == ()

    def test_heartbeat_on_gc_replica_broadcasts(self):
        core = make_gc_core()
        assert [type(e) for e in core.sync_tick("heartbeat")] == [Broadcast]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_core().sync_tick("bogus")


class TestRecover:
    def test_roundtrip_restores_log_and_clock(self):
        core = make_core()
        core.submit(insert(1))
        core.submit(insert(2))
        snapshot = core.snapshot()
        effects = core.recover(snapshot)
        assert core.local_state() == {1, 2}
        assert core.replica.clock.value == 2
        kinds = [type(e) for e in effects]
        # rejoin sync broadcast first, persist, then the timer request
        assert kinds == [Broadcast, Persist, Timer]
        assert effects[1].reason == "recover"

    def test_fsync_truncation_loses_tail_but_not_clock(self):
        core = make_core()
        core.submit(insert(1))
        core.submit(insert(2))
        core.recover(core.snapshot(fsync_point=1))
        assert core.local_state() == {1}
        assert core.replica.clock.value == 2  # write-ahead clock survives

    def test_recover_rebuilds_a_fresh_replica(self):
        core = make_core()
        core.submit(insert(1))
        old = core.replica
        core.handle(CrashRecovered(core.snapshot()))
        assert core.replica is not old

    def test_handle_update_event_matches_submit(self):
        c1, c2 = make_core(), make_core()
        e1 = c1.handle(UpdateSubmitted(insert(9)))
        e2 = c2.submit(insert(9))
        assert e1 == e2

    def test_verified_records_restore_like_the_image_text(self):
        # the node boot path hands the core records, not text: same walk
        core = make_core()
        core.submit(insert(1))
        core.submit(insert(2))
        text = core.snapshot()
        from_text, from_records = make_core(), make_core()
        e1 = from_text.recover(text)
        e2 = from_records.recover(read_image(text))
        assert e1 == e2
        assert from_records.replica.updates == from_text.replica.updates
        assert from_records.replica.clock.value == 2

    def test_rejected_image_leaves_the_replica_in_place(self):
        core = make_core(pid=1)
        core.submit(insert(1))
        old = core.replica
        with pytest.raises(ValueError, match="belongs to process 0"):
            core.recover(make_core(pid=0).snapshot())
        assert core.replica is old


class TestRejoinUnderLiveTraffic:
    # A FIFO completeness claim is only sound within one connection: the
    # first live update after a re-dial must not advance heard[j] past
    # everything dropped while the link was down (DESIGN.md §11).
    def test_updates_missed_while_down_are_paged_after_the_redial(self):
        n_missed = 50
        responder = make_gc_core(0)
        # node 2 is dead: the node drops these frames in PeerLinks.ship
        for i in range(n_missed):
            responder.submit(insert(i))
        # the link is back: the next update is the first frame node 2 sees
        (live, _persist) = responder.submit(insert("live"))
        rejoiner = make_gc_core(2)
        rejoiner.handle(LinkEstablished(0))  # node 0's HELLO
        rejoiner.deliver(0, live.payload)
        assert rejoiner.replica.heard[0] == 0  # an open epoch claims nothing
        (request,) = rejoiner.sync_tick()
        paged = [
            stamped
            for eff in responder.deliver(2, request.payload)
            if isinstance(eff, Send) and eff.payload[0] == "sync-resp"
            for stamped in eff.payload[1]
        ]
        assert len(paged) == n_missed

    def test_the_rounds_sync_done_completes_the_epoch(self):
        responder = make_gc_core(0)
        for i in range(5):
            responder.submit(insert(i))
        rejoiner = make_gc_core(2)
        (request,) = rejoiner.handle(LinkEstablished(0))
        assert request == Send(0, request.payload)
        assert rejoiner.replica.link_epochs[0] == "open"
        replies = [e.payload for e in responder.deliver(2, request.payload)
                   if isinstance(e, Send)]
        assert replies[-1] == ("sync-done", 5)  # last, after every page
        for payload in replies:
            rejoiner.deliver(0, payload)
        assert rejoiner.replica.link_epochs[0] == "complete"
        assert rejoiner.replica.heard[0] == 5
        (live, _persist) = responder.submit(insert("live"))
        rejoiner.deliver(0, live.payload)  # a complete epoch's live frame
        assert rejoiner.replica.heard[0] == 6

    def test_an_open_round_is_not_asked_for_twice(self):
        # A request from a peer that knows more draws a counter-request,
        # unless our own round with that peer is still in flight: its
        # request already asks for everything we lack.
        peer = make_gc_core(0)
        peer.handle(LinkLost(1))  # so its digest lists 1's ids as runs
        for cl in range(1, 6):
            peer.deliver(1, (cl, 1, insert(cl)))
        (request,) = peer.sync_tick()

        def counter_requests(core):
            return [e for e in core.deliver(0, request.payload)
                    if isinstance(e, Send) and e.payload[0] == "sync-req"]

        assert len(counter_requests(make_gc_core(2))) == 1  # born complete
        rejoiner = make_gc_core(2)
        rejoiner.handle(LinkEstablished(0))
        assert counter_requests(rejoiner) == []

    def test_a_lost_link_stops_heard_until_a_round_completes(self):
        core = make_gc_core(2)
        core.deliver(0, (3, 0, insert("a")))
        assert core.replica.heard[0] == 3  # born complete
        assert core.handle(LinkLost(0)) == ()
        core.deliver(0, (4, 0, insert("b")))
        core.deliver(0, ("hb", 9, 0))
        assert core.replica.heard[0] == 3  # kept, not advanced
        assert core.replica.link_epochs[0] == "down"
        # a round served on the next connection (a node that booted
        # while the peer dialled in sends no request of its own)
        core.deliver(0, ("sync-done", 9))
        assert core.replica.link_epochs[0] == "complete"
        assert core.replica.heard[0] == 9

    @pytest.mark.parametrize("marker", [
        ("sync-done",), ("sync-done", -1), ("sync-done", "7"),
        ("sync-done", True), ("sync-done", 1, 2),
    ])
    def test_a_malformed_marker_is_a_protocol_error(self, marker):
        with pytest.raises(SyncProtocolError):
            make_gc_core(2).deliver(0, marker)

    def test_a_plain_replica_ignores_links_and_gets_no_marker(self):
        plain, gc = make_core(2), make_gc_core(0)
        gc.submit(insert(1))
        assert plain.handle(LinkEstablished(0)) == ()
        assert plain.handle(LinkLost(0)) == ()
        (request,) = plain.sync_tick()
        replies = [e.payload[0] for e in gc.deliver(2, request.payload)
                   if isinstance(e, Send)]
        assert replies == ["sync-resp"]


class TestIntrospection:
    def test_sync_capable(self):
        assert make_core().sync_capable

    def test_witness_meta_has_timestamp(self):
        core = make_core()
        core.submit(insert(1))
        assert core.witness_meta()["timestamp"] == (1, 0)

    def test_log_length_tracks_submissions(self):
        core = make_core()
        assert core.log_length == 0
        core.submit(insert(1))
        assert core.log_length == 1

    def test_handle_rejects_non_events(self):
        with pytest.raises(TypeError):
            make_core().handle("not an event")
