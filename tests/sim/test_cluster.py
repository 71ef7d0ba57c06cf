"""Unit tests for the cluster runtime: wait-freedom, crashes, traces."""

from __future__ import annotations

import pytest

from repro.core.universal import UniversalReplica
from repro.objects.causal import CausalApplyReplica
from repro.sim import Cluster
from repro.sim.cluster import CrashedProcessError, OpRecord
from repro.sim.network import FixedLatency
from repro.specs import SetSpec
from repro.specs import set_spec as S


def make(n=3, **kw):
    spec = SetSpec()
    kw.setdefault("latency", FixedLatency(1.0))
    return Cluster(n, lambda pid, total: UniversalReplica(pid, total, spec), **kw)


class TestWaitFreedom:
    def test_update_completes_without_delivery(self):
        c = make()
        c.update(0, S.insert(1))
        # The operation is done; messages are still in flight.
        assert c.network.pending_count() == 2
        assert c.query(0, "read") == frozenset({1})

    def test_query_never_advances_time_or_network(self):
        c = make()
        c.update(0, S.insert(1))
        pending = c.network.pending_count()
        t = c.now
        c.query(1, "read")
        assert c.network.pending_count() == pending
        assert c.now == t

    def test_operations_wait_free_under_total_isolation(self):
        c = make()
        c.partition([[0], [1], [2]])
        for i in range(10):
            c.update(0, S.insert(i))
        assert c.query(0, "read") == frozenset(range(10))


class TestDelivery:
    def test_step_advances_time(self):
        c = make()
        c.update(0, S.insert(1))
        assert c.step()
        assert c.now >= 1.0

    def test_run_drains_everything(self):
        c = make()
        c.update(0, S.insert(1))
        c.update(1, S.insert(2))
        steps = c.run()
        assert steps == 4  # two broadcasts to two peers each
        assert c.quiescent()

    def test_run_until_partial(self):
        c = make(latency=FixedLatency(10.0))
        c.update(0, S.insert(1))
        c.run_until(5.0)
        assert c.now == 5.0
        assert c.query(1, "read") == frozenset()
        c.run_until(10.0)
        assert c.query(1, "read") == frozenset({1})

    def test_run_guardrail(self):
        c = make()
        c.update(0, S.insert(1))
        with pytest.raises(RuntimeError, match="quiesce"):
            c.run(max_steps=1)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            make().advance(-1.0)


class TestCrashes:
    def test_crashed_process_rejects_operations(self):
        c = make()
        c.crash(1)
        with pytest.raises(CrashedProcessError):
            c.update(1, S.insert(1))
        with pytest.raises(CrashedProcessError):
            c.query(1, "read")

    def test_messages_to_crashed_are_dropped(self):
        c = make()
        c.update(0, S.insert(1))
        c.crash(1)
        c.run()
        assert c.metrics.value("repro_cluster_dropped_to_crashed_total") == 1
        assert c.query(2, "read") == frozenset({1})

    def test_crash_with_drop_outgoing_loses_in_flight(self):
        c = make()
        c.update(0, S.insert(1))
        c.crash(0, drop_outgoing=True)
        c.run()
        assert c.query(1, "read") == frozenset()

    def test_survivors_still_converge_after_crash(self):
        # Wait-freedom: any number of processes may crash.
        c = make(n=5)
        c.update(0, S.insert(1))
        c.run()
        c.crash(0)
        c.crash(1)
        c.update(2, S.insert(2))
        c.update(4, S.delete(1))
        c.run()
        states = {frozenset(s) for s in c.states().values()}
        assert len(states) == 1

    def test_alive_listing(self):
        c = make()
        c.crash(2)
        assert c.alive() == [0, 1]


class TestTrace:
    def test_records_all_operations_in_order(self):
        c = make()
        c.update(0, S.insert(1))
        c.query(1, "read")
        c.update(1, S.insert(2))
        assert len(c.trace) == 3
        assert [r.pid for r in c.trace] == [0, 1, 1]

    def test_query_record_captures_output(self):
        c = make()
        c.update(0, S.insert(1))
        out = c.query(0, "read")
        record = c.trace.records[-1]
        assert record.label.output == out

    def test_to_history_program_order(self):
        c = make()
        c.update(0, S.insert(1))
        c.update(1, S.insert(2))
        c.update(0, S.delete(1))
        h = c.trace.to_history()
        e0, e1, e2 = h.events
        assert h.precedes(e0, e2)
        assert not h.precedes(e0, e1)

    def test_suc_witness_requires_metadata(self):
        # The causal baseline records no witness (every Algorithm 1 replica does).
        c = Cluster(2, lambda pid, n: CausalApplyReplica(pid, n, SetSpec()))
        c.update(0, S.insert(1))
        with pytest.raises(ValueError, match="timestamp"):
            c.trace.suc_witness()

    def test_updates_queries_split(self):
        c = make()
        c.update(0, S.insert(1))
        c.query(0, "read")
        assert len(c.trace.updates()) == 1
        assert len(c.trace.queries()) == 1

    def test_suc_witness_names_record_missing_timestamp(self):
        c = make()
        c.update(0, S.insert(1))
        record = c.trace.records[-1]
        meta = dict(record.meta)
        del meta["timestamp"]
        c.trace.records[-1] = OpRecord(
            record.eid, record.pid, record.label, record.time, meta
        )
        with pytest.raises(ValueError, match=rf"record {record.eid} lacks a timestamp"):
            c.trace.suc_witness()

    def test_suc_witness_requires_query_visibility(self):
        c = make()
        c.update(0, S.insert(1))
        c.query(0, "read")
        record = c.trace.records[-1]
        meta = dict(record.meta)
        del meta["visible"]
        c.trace.records[-1] = OpRecord(
            record.eid, record.pid, record.label, record.time, meta
        )
        with pytest.raises(
            ValueError, match=rf"query record {record.eid} lacks visibility"
        ):
            c.trace.suc_witness()

    def test_to_history_orders_every_process_chain(self):
        c = make()
        script = [(0, 1), (1, 2), (0, 3), (2, 4), (1, 5), (0, 6)]
        for pid, value in script:
            c.update(pid, S.insert(value))
        c.query(1, "read")
        h = c.trace.to_history()
        by_pid: dict[int, list] = {}
        for ev in h.events:
            by_pid.setdefault(ev.pid, []).append(ev)
        # Same process: totally ordered by invocation order (and only
        # forward — program order is irreflexive and antisymmetric).
        for chain in by_pid.values():
            for i, a in enumerate(chain):
                for b in chain[i + 1:]:
                    assert h.precedes(a, b)
                    assert not h.precedes(b, a)
        # Different processes: never ordered, regardless of wall order.
        for a in h.events:
            for b in h.events:
                if a.pid != b.pid:
                    assert not h.precedes(a, b)
