"""The asyncio backend end to end: replication, crash, recovery.

Real sockets on loopback, real timers — these are integration tests of
the effect interpreter, kept short (sub-second sync intervals) so the
suite stays fast.  Protocol semantics are pinned by the proto unit tests
and the sim↔net differential test; here we check the *backend*: frames
arrive, links repair, durable images survive a kill.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.universal import UniversalReplica
from repro.net.harness import LocalCluster
from repro.net.node import NodeStoppedError
from repro.specs.set_spec import SetSpec, insert


def make_cluster(tmp_path=None, *, http: bool = False, n: int = 3) -> LocalCluster:
    spec = SetSpec()
    return LocalCluster(
        n,
        lambda pid, k: UniversalReplica(pid, k, spec),
        data_dir=None if tmp_path is None else str(tmp_path),
        sync_interval=0.05,
        http=http,
    )


def test_updates_replicate_across_the_mesh():
    async def scenario():
        cluster = make_cluster()
        await cluster.start()
        try:
            for pid in range(3):
                cluster.submit(pid, insert(pid))
            await cluster.settle(timeout=10)
            assert cluster.states() == {0: {0, 1, 2}, 1: {0, 1, 2}, 2: {0, 1, 2}}
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_submit_returns_witness_metadata():
    async def scenario():
        cluster = make_cluster()
        await cluster.start()
        try:
            meta = cluster.submit(0, insert(9))
            assert meta["timestamp"] == (1, 0)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_kill_then_restart_recovers_from_disk(tmp_path):
    async def scenario():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            for v in range(6):
                cluster.submit(v % 3, insert(v))
            await cluster.settle(timeout=10)
            # let the flusher write node 2's durable image, then crash it
            await asyncio.sleep(0.2)
            cluster.kill(2)
            with pytest.raises(NodeStoppedError):
                cluster.nodes[2].submit(insert(99))
            cluster.submit(0, insert(100))  # progress while one replica is down
            node = await cluster.restart(2)
            await cluster.settle(timeout=10)
            expected = set(range(6)) | {100}
            assert cluster.states() == {0: expected, 1: expected, 2: expected}
            assert node.core.log_length == len(expected)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_restart_without_disk_rejoins_via_anti_entropy():
    async def scenario():
        cluster = make_cluster()  # no data_dir: recovery is pure gossip
        await cluster.start()
        try:
            cluster.submit(0, insert(1))
            await cluster.settle(timeout=10)
            cluster.kill(1)
            cluster.submit(2, insert(2))
            await cluster.restart(1)
            await cluster.settle(timeout=10)
            assert cluster.states()[1] == {1, 2}
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_dead_node_is_not_queryable():
    async def scenario():
        cluster = make_cluster()
        await cluster.start()
        try:
            cluster.kill(0)
            with pytest.raises(RuntimeError):
                cluster.submit(0, insert(1))
            assert cluster.alive() == [1, 2]
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_background_task_exception_is_surfaced():
    """A dying background task must not vanish: the done-callback records
    the exception, bumps the metric and logs it (regression for silently
    swallowed task errors — a dead sync loop looked exactly like health)."""

    async def scenario():
        cluster = make_cluster(n=2)
        await cluster.start()
        node = cluster.nodes[0]
        try:
            async def failing_timer():
                raise RuntimeError("timer exploded")

            node._spawn(failing_timer())
            for _ in range(3):  # let the task run and the callback fire
                await asyncio.sleep(0)
            assert [type(e) for e in node.task_errors] == [RuntimeError]
            assert str(node.task_errors[0]) == "timer exploded"
            assert node.registry.value("repro_net_task_errors_total") == 1
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_cancelled_tasks_are_not_errors():
    """Shutdown cancellation is the normal path, not a surfaced failure."""

    async def scenario():
        cluster = make_cluster(n=2)
        await cluster.start()
        node = cluster.nodes[0]
        await cluster.stop()  # cancels the sync/flush loops
        await asyncio.sleep(0)
        assert node.task_errors == []

    asyncio.run(scenario())


@pytest.mark.parametrize("n", [1, 3])
def test_sync_requests_go_out_once_a_tick_and_only_to_peers(n, monkeypatch):
    """A node with no peers asks no one (``solo-durable`` used to count ten
    broadcasts a second to nobody); with peers the cadence is one request
    per node per tick, and the link upkeep runs either way."""
    from repro.net.node import ReplicaNode

    rounds = []
    ping = ReplicaNode._ping_peers
    monkeypatch.setattr(
        ReplicaNode, "_ping_peers", lambda self: (rounds.append(self.pid), ping(self))
    )

    async def scenario():
        cluster = make_cluster(n=n)
        await cluster.start()
        try:
            cluster.submit(0, insert(1))
            while rounds.count(0) < 4:
                await asyncio.sleep(0.01)
            for pid, node in cluster.nodes.items():
                asked = node.registry.value("repro_sync_requests_total", pid=pid)
                assert asked == (rounds.count(pid) if n > 1 else 0)
        finally:
            await cluster.stop()

    asyncio.run(scenario())
