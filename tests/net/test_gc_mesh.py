"""The shipped GC node collects, and its completeness claims stay sound.

A ``--gc`` node (``make_factory(..., gc=True)``) heartbeats on its sync
tick, so every peer's ``heard`` entry moves and the stable prefix is
folded away; its journal is compacted once the floor has moved and the
file has doubled since the last rewrite.  ``heard[j]`` advances from
live frames only inside a link epoch whose opening sync round with ``j``
has completed (DESIGN.md §11), so a link that comes back under live
traffic cannot claim the frames it dropped while it was down.
"""

from __future__ import annotations

import asyncio
import os
import socket

from repro.net.__main__ import make_factory
from repro.net.harness import LocalCluster
from repro.specs.set_spec import insert
from repro.storage.journal import Journal


def gc_cluster(tmp_path=None, *, http: bool = False) -> LocalCluster:
    return LocalCluster(
        3, make_factory("set", gc=True),
        data_dir=None if tmp_path is None else str(tmp_path),
        sync_interval=0.02, http=http,
    )


async def wait_until(predicate, timeout: float, what: str) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


def closed_port() -> int:
    """A loopback port nothing listens on: a dial to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def journal_entries(path: str, pid: int) -> int:
    journal, records, _torn = Journal.open(path, pid)
    journal.close()
    return sum(1 for rec in records if rec["r"] == "entry")


def test_a_rejoin_under_live_inserts_converges(tmp_path):
    async def scenario():
        cluster = gc_cluster(tmp_path)
        await cluster.start()
        try:
            cluster.submit(0, insert(-1))
            await cluster.settle(timeout=10)
            cluster.kill(2)
            for i in range(50):
                cluster.submit(0, insert(i))
            await asyncio.sleep(0.1)
            rejoin = asyncio.ensure_future(cluster.restart(2))
            for i in range(50, 150):  # inserts continue during the rejoin
                cluster.submit(0, insert(i))
                await asyncio.sleep(0.002)
            await rejoin
            await cluster.settle(timeout=20)
            expected = {-1, *range(150)}
            assert cluster.states() == {0: expected, 1: expected, 2: expected}
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_link_that_dropped_frames_claims_nothing_until_its_round_completes():
    async def scenario():
        cluster = gc_cluster()
        await cluster.start()
        n0, n2 = cluster.nodes[0], cluster.nodes[2]
        book = {p: (n.host, n.peer_port) for p, n in cluster.nodes.items()}
        try:
            cluster.submit(0, insert(-1))
            await cluster.settle(timeout=10)
            await wait_until(
                lambda: n2.core.replica.link_epochs[0] == "complete", 5,
                "node 2's first round with node 0",
            )
            # node 2 cannot reach node 0 (its requests there are dropped),
            # and node 0's link to node 2 dies: the next frames are lost
            n2.set_peers({**book, 0: ("127.0.0.1", closed_port())})
            n0.links.out[2].close()
            claimed = n2.core.replica.heard[0]
            for i in range(50):
                cluster.submit(0, insert(i))
            # node 0 re-dials node 2; live frames flow on the new link
            for i in range(50, 80):
                cluster.submit(0, insert(i))
                await asyncio.sleep(0.005)
            replica = n2.core.replica
            await wait_until(
                lambda: replica.link_epochs[0] == "open"
                and 79 in n2.local_state(), 5, "live frames on the new link",
            )
            assert replica.heard[0] == claimed  # nothing over the gap
            health = n2.gc_info()
            assert health["epochs"]["0"] == "open"
            n2.set_peers(book)
            await cluster.settle(timeout=20)
            await wait_until(
                lambda: replica.link_epochs[0] == "complete", 5,
                "the new epoch's round",
            )
            expected = {-1, *range(80)}
            assert cluster.states() == {0: expected, 1: expected, 2: expected}
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_healthy_gc_mesh_keeps_what_is_in_flight_not_every_update(tmp_path):
    n_updates = 1500

    async def scenario():
        cluster = gc_cluster(tmp_path)
        await cluster.start()
        try:
            for i in range(n_updates):
                cluster.submit(i % 3, insert(i))
                if i % 30 == 29:
                    await asyncio.sleep(0.005)
            await cluster.settle(timeout=20)
            # heartbeats keep the floor moving after the last update: every
            # stable entry is folded into the base
            await wait_until(
                lambda: all(
                    n.core.log_length == 0 for n in cluster.nodes.values()
                ), 15, "every node's live log to empty",
            )
            assert all(
                n.core.replica.gc_clock_floor > 0 for n in cluster.nodes.values()
            )
            stores = [n._store for n in cluster.nodes.values()]
        finally:
            await cluster.stop()
        for pid, store in enumerate(stores):
            assert store.compactions >= 1
            assert store.bytes_rewritten <= store.bytes_appended
            # what the last rewrite kept plus what came after it (the
            # journal stays under twice its compacted size), not every
            # update: about 175 B per entry journaled
            path = os.path.join(str(tmp_path), f"replica-{pid}.journal")
            assert journal_entries(path, pid) < n_updates // 2
            assert os.path.getsize(path) < 90 * n_updates
        expected = set(range(n_updates))
        again = gc_cluster(tmp_path)
        await again.start()
        try:
            assert again.states() == {0: expected, 1: expected, 2: expected}
        finally:
            await again.stop()

    asyncio.run(scenario())


def test_healthz_names_the_peer_that_pins_the_floor(tmp_path):
    async def scenario():
        cluster = gc_cluster(tmp_path, http=True)
        await cluster.start()
        client = cluster.client(0)
        try:
            cluster.submit(0, insert(0))
            await cluster.settle(timeout=10)
            cluster.kill(2)
            for i in range(1, 200):
                cluster.submit(0, insert(i))
                if i % 20 == 0:
                    await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            status, doc = await client.request("GET", "/healthz")
            assert status == 200
            gc = doc["gc"]
            assert gc["pinned_by"] == 2 and gc["epochs"]["2"] == "down"
            assert gc["epochs"]["1"] == "complete"
            assert gc["floor_lag"] >= 199  # every update since node 2 died
            assert gc["floor"] <= gc["heard"][2]
            lag = cluster.registry.flat()['repro_replica_gc_floor_lag{pid="0"}']
            assert lag >= 199
            await cluster.restart(2)
            await cluster.settle(timeout=20)

            async def lag_now() -> int:
                _status, doc = await client.request("GET", "/healthz")
                return doc["gc"]["floor_lag"]

            deadline = asyncio.get_running_loop().time() + 10
            while await lag_now() > 10:  # O(in-flight): the mesh is idle
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            _status, doc = await client.request("GET", "/healthz")
            assert doc["gc"]["epochs"] == {"1": "complete", "2": "complete"}
        finally:
            await client.close()
            await cluster.stop()

    asyncio.run(scenario())
