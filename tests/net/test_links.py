"""Peer links: what a dead peer costs, how fast a returning one is
re-dialled, and what a malformed frame does to its connection."""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.sync import SYNC_REQ, SYNC_STATE
from repro.core.universal import UniversalReplica
from repro.net.__main__ import make_factory
from repro.net.framing import encode_frame
from repro.net.harness import LocalCluster
from repro.net.node import MSG, ReplicaNode
from repro.proto.wire import state_transfer
from repro.specs.set_spec import SetSpec, insert


def factory(pid, n):
    return UniversalReplica(pid, n, SetSpec())


def dials(node, outcome="ok"):
    return node.registry.value("repro_net_peer_dials_total", outcome=outcome)


def sync_requests(node):
    return node.registry.value("repro_sync_requests_total", pid=node.pid)


async def wait_for(predicate, timeout=2.0):
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    assert predicate()


def test_every_link_is_up_when_start_returns():
    """A peer's HELLO reaching a node that has not booted yet must not
    leave that node's own boot dial in flight behind its back."""

    async def scenario():
        cluster = LocalCluster(3, factory, sync_interval=5.0, http=False)
        await cluster.start()
        try:
            for pid, node in cluster.nodes.items():
                assert sorted(node.links.up()) == [p for p in range(3) if p != pid]
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_dead_peer_costs_no_dial_per_frame():
    """2 000 submits inside one sync interval, one peer dead: every frame
    to it is dropped and counted, and at most two dials are attempted
    (the parent dialled once per dropped frame)."""

    async def scenario():
        cluster = LocalCluster(3, factory, sync_interval=5.0, http=False)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            cluster.kill(2)
            await wait_for(lambda: node.links.up() == [1])
            before = {o: dials(node, o) for o in ("ok", "failed")}
            dropped = node.registry.value("repro_net_frames_dropped_total")
            for v in range(2000):
                cluster.submit(0, insert(v))
            await asyncio.sleep(0.2)
            attempts = sum(dials(node, o) - n for o, n in before.items())
            assert attempts <= 2
            assert node.registry.value("repro_net_frames_dropped_total") - dropped >= 2000
            assert cluster.nodes[1].local_state() == set(range(2000))
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_down_link_is_redialled_once_per_tick():
    async def scenario():
        cluster = LocalCluster(2, factory, sync_interval=0.05, http=False)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            cluster.kill(1)
            await wait_for(lambda: dials(node, "failed") >= 1)
            failed, ticks = dials(node, "failed"), sync_requests(node)
            await asyncio.sleep(0.5)  # about ten ticks
            ticks = sync_requests(node) - ticks
            assert ticks >= 2 and 1 <= dials(node, "failed") - failed <= ticks + 1
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_restarted_peer_is_dialled_back_on_its_hello():
    """The peer comes back on the *same* address, so no address-book
    change announces it: its HELLO does, long before the next tick."""

    async def scenario():
        a, b = (ReplicaNode(p, 2, factory, sync_interval=30.0) for p in range(2))
        for node in (a, b):
            await node.listen(http_port=None)
        book = {0: (a.host, a.peer_port), 1: (b.host, b.peer_port)}
        for node in (a, b):
            node.set_peers(book)
        await a.start()
        await b.start()
        again = None
        try:
            b.kill()
            await wait_for(lambda: a.links.up() == [])
            a.submit(insert(1))  # dropped: b is down
            ok = dials(a)
            again = ReplicaNode(1, 2, factory, sync_interval=30.0)
            await again.listen(peer_port=book[1][1], http_port=None)
            again.set_peers(book)
            await again.start()
            await wait_for(lambda: a.links.up() == [1])
            assert dials(a) == ok + 1
            a.submit(insert(2))
            await wait_for(lambda: 2 in again.local_state())
        finally:
            await a.stop()
            if again is not None:
                await again.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("frame", [
    encode_frame([MSG]),                     # no source, no payload
    (7).to_bytes(4, "big") + b"garbage",     # not JSON
    encode_frame((MSG, 99, {"k": 1})),       # no such process
    encode_frame("hello"),                   # not a frame tuple
    # sync requests whose digest breaks the sorted, disjoint runs or
    # names no process of the mesh
    encode_frame((MSG, 0, (SYNC_REQ, 0, (0, 0), ((), ((5, 5), (1, 2))), False))),
    encode_frame((MSG, 0, (SYNC_REQ, 0, (0, -1), ((), ()), False))),
    encode_frame((MSG, 0, (SYNC_REQ, 7, (0, 0), ((), ()), False))),
], ids=["no-src", "not-json", "unknown-src", "not-a-tuple",
        "sync-req-unsorted-runs", "sync-req-negative-floor",
        "sync-req-unknown-requester"])
def test_a_malformed_frame_closes_its_link_and_is_counted(frame):
    async def scenario():
        cluster = LocalCluster(2, factory, sync_interval=0.05, http=False)
        await cluster.start()
        try:
            node = cluster.nodes[1]
            reader, writer = await asyncio.open_connection(node.host, node.peer_port)
            writer.write(frame)
            assert await asyncio.wait_for(reader.read(), 2.0) == b""  # closed
            writer.close()
            assert node.registry.value("repro_net_frames_rejected_total") == 1
            assert node.task_errors == []
            cluster.submit(0, insert(3))  # the mesh's own links are unharmed
            await wait_for(lambda: 3 in node.local_state())
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def _foreign_image():
    other = GarbageCollectedReplica(1, 2, SetSpec())
    other.install_gc_state(base=frozenset({9}), clock_floor=5)
    return state_transfer(other)  # process 1's image, sent as from 0


@pytest.mark.parametrize("payload", [
    lambda: (SYNC_STATE, 1, {}),  # the pre-image shape, no fields
    _foreign_image,
], ids=["bare-dict", "foreign-image"])
def test_a_refused_state_transfer_closes_its_link_and_is_counted(payload):
    async def scenario():
        cluster = LocalCluster(2, make_factory("set", gc=True),
                               sync_interval=0.05, http=False)
        await cluster.start()
        try:
            node = cluster.nodes[1]
            reader, writer = await asyncio.open_connection(node.host, node.peer_port)
            writer.write(encode_frame((MSG, 0, payload())))
            assert await asyncio.wait_for(reader.read(), 2.0) == b""  # closed
            writer.close()
            assert node.registry.value("repro_net_frames_rejected_total") == 1
            assert node.task_errors == []
            assert node.core.replica.gc_clock_floor == 0  # nothing installed
            cluster.submit(0, insert(3))
            await wait_for(lambda: 3 in node.local_state())
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_killed_node_is_freed_without_the_cycle_collector():
    """Its links drop the node's callbacks, so no reference cycle keeps a
    dead replica's whole log alive until a full collection lands in the
    middle of somebody's timed operation."""

    async def scenario():
        cluster = LocalCluster(3, factory, sync_interval=0.05)
        await cluster.start()
        try:
            cluster.submit(0, insert(1))
            await cluster.settle(timeout=10)
            dead = weakref.ref(cluster.nodes[2])
            cluster.kill(2)
            await cluster.restart(2)
            await cluster.settle(timeout=10)
            await asyncio.sleep(0.05)  # let the closed connections report
            assert dead() is None
        finally:
            await cluster.stop()

    gc.disable()
    try:
        asyncio.run(scenario())
    finally:
        gc.enable()
