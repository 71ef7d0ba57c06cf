"""Tests for the object handles and the replication factory."""

from __future__ import annotations

import pytest

from repro.core.universal import UniversalReplica
from repro.objects import make_memory, make_replicated
from repro.objects.handles import SetHandle
from repro.specs import (
    CounterSpec,
    LogSpec,
    MapSpec,
    QueueSpec,
    RegisterSpec,
    SetSpec,
    StackSpec,
)


class TestFactory:
    def test_default_strategy_is_universal(self):
        cluster, handles = make_replicated(SetSpec(), 3)
        assert all(isinstance(r, UniversalReplica) for r in cluster.replicas)
        assert all(isinstance(h, SetHandle) for h in handles)

    def test_strategy_selection(self):
        cluster, _ = make_replicated(SetSpec(), 2, strategy="checkpoint")
        assert all(r.replay.name == "checkpoint" for r in cluster.replicas)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_replicated(SetSpec(), 2, strategy="magic")

    def test_replica_kwargs_forwarded(self):
        cluster, _ = make_replicated(
            SetSpec(), 2, strategy="checkpoint", checkpoint_interval=7
        )
        assert cluster.replicas[0].replay.interval == 7

    @pytest.mark.parametrize("spec, strategy, kwargs", [
        (SetSpec(), "checkpoint", {"relay": True}),
        (CounterSpec(), "undo", {"relay": True, "sync_page_size": 8}),
    ])
    def test_log_strategies_take_the_same_keywords(self, spec, strategy, kwargs):
        # Relay and paging belong to the replica, whichever replay it runs.
        cluster, handles = make_replicated(spec, 3, strategy=strategy, seed=4, **kwargs)
        for i in range(9):
            if spec.name == "set":
                handles[i % 3].insert(i)
            else:
                handles[i % 3].inc(i)
        cluster.run()
        assert all(r.relay for r in cluster.replicas)
        assert len({spec.canonical(s) for s in cluster.states().values()}) == 1

    def test_a_setting_the_replay_does_not_use_is_refused(self):
        with pytest.raises(ValueError, match="checkpoint"):
            make_replicated(SetSpec(), 2, checkpoint_interval=8)
        with pytest.raises(ValueError, match="checkpoint"):
            make_replicated(CounterSpec(), 2, strategy="undo", checkpoint_interval=8)
        with pytest.raises(ValueError, match="relay"):
            make_replicated(SetSpec(), 2, strategy="gc", relay=True)

    def test_commutative_strategy_needs_commutative_spec(self):
        # Section VII-C's commutative path is the fold replay; forcing it
        # on updates that do not commute is refused.
        make_replicated(CounterSpec(), 2, replay="fold")
        with pytest.raises(ValueError, match="commutative"):
            make_replicated(SetSpec(), 2, replay="fold")

    def test_fifo_defaults(self):
        c1, _ = make_replicated(SetSpec(), 2)
        c2, _ = make_replicated(SetSpec(), 2, strategy="fifo")
        assert not c1.network.fifo
        assert c2.network.fifo

    def test_commutative_replica_for_counter(self):
        cluster, _ = make_replicated(CounterSpec(), 2)
        assert all(r.replay.name == "fold" for r in cluster.replicas)


class TestHandles:
    def test_set_handle_roundtrip(self):
        cluster, (a, b, c) = make_replicated(SetSpec(), 3)
        a.insert("x")
        a.delete("y")
        cluster.run()
        assert b.read() == frozenset({"x"})
        assert c.contains("x") is True

    def test_map_handle(self):
        cluster, (a, b) = make_replicated(MapSpec(), 2)
        a.put("k", 1)
        cluster.run()
        assert b.get("k") == 1
        assert b.keys() == frozenset({"k"})
        a.remove("k")
        cluster.run()
        assert b.get("k") == "<absent>"

    def test_register_handle(self):
        cluster, (a, b) = make_replicated(RegisterSpec(), 2)
        a.write(5)
        cluster.run()
        assert b.read() == 5

    def test_counter_handle(self):
        cluster, (a, b) = make_replicated(CounterSpec(), 2)
        a.inc(3)
        b.dec()
        cluster.run()
        assert a.read() == 2

    def test_queue_handle_split_dequeue(self):
        cluster, (a, b) = make_replicated(QueueSpec(), 2)
        a.enqueue("job1")
        a.enqueue("job2")
        cluster.run()
        assert b.front() == "job1"
        b.pop()
        cluster.run()
        assert a.front() == "job2"
        assert a.size() == 1

    def test_stack_handle_split_pop(self):
        cluster, (a, b) = make_replicated(StackSpec(), 2)
        a.push(1)
        a.push(2)
        cluster.run()
        assert b.top() == 2
        b.drop()
        cluster.run()
        assert a.top() == 1
        assert b.snapshot() == (1,)

    def test_log_handle(self):
        cluster, (a, b) = make_replicated(LogSpec(), 2)
        a.append("line1")
        b.append("line2")
        cluster.run()
        assert a.read() == b.read()
        assert a.length() == 2
        assert a.at(0) in ("line1", "line2")

    def test_memory_factory(self):
        cluster, (a, b, c) = make_memory(3, initial=0)
        a.write("x", 1)
        cluster.run()
        assert b.read("x") == 1
        assert c.read("unwritten") == 0
        assert b.snapshot() == {"x": 1}

    def test_handle_exposes_replica(self):
        cluster, (a, _) = make_replicated(SetSpec(), 2)
        assert a.replica is cluster.replicas[0]
