"""Runtime instrumentation: shared registry, fault counts, trace
coverage of the message lifecycle and fault events."""

from __future__ import annotations

import pytest

from repro.core.universal import UniversalReplica
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SimTracer
from repro.sim.cluster import Cluster
from repro.sim.network import DuplicatingNetwork, LossyNetwork
from repro.specs import SetSpec
from repro.specs import set_spec as S
from tests.counts import replayed


def make_cluster(n=3, *, tracer=None, network_cls=None, network_kwargs=None,
                 factory=None, seed=0):
    spec = SetSpec()
    factory = factory or (lambda p, size: UniversalReplica(p, size, spec, relay=True))
    kwargs = {}
    if network_cls is not None:
        kwargs["network_cls"] = network_cls
        kwargs["network_kwargs"] = network_kwargs or {}
    if tracer is not None:
        kwargs["tracer"] = tracer
    return Cluster(n, factory, seed=seed, **kwargs)


class TestSharedRegistry:
    def test_network_and_replicas_rehomed_onto_cluster_registry(self):
        c = make_cluster()
        assert c.network.metrics is c.metrics
        for replica in c.replicas:
            assert replica.metrics is c.metrics

    def test_explicit_registry_is_used(self):
        reg = MetricsRegistry()
        spec = SetSpec()
        c = Cluster(2, lambda p, n: UniversalReplica(p, n, spec),
                    registry=reg)
        assert c.metrics is reg
        c.update(0, S.insert(1))
        assert reg.value("repro_cluster_updates_total", pid=0) == 1

    def test_standalone_replica_still_counts(self):
        # Replicas own a private registry until a cluster re-homes them.
        spec = SetSpec()
        replica = UniversalReplica(0, 1, spec)
        replica.on_update(S.insert(1))
        replica.on_query("read", ())
        assert replayed(replica) == 1
        assert replica.metrics.total("repro_replica_replayed_updates_total") == 1


class TestDeprecatedAliases:
    """The fault counts once read through Network/Cluster properties; the
    registry is now their only home."""

    def test_lossy_and_duplicating_counts(self):
        lossy = make_cluster(network_cls=LossyNetwork,
                             network_kwargs={"drop_probability": 0.5}, seed=7)
        for i in range(10):
            lossy.update(i % 3, S.insert(i))
        lossy.run()
        assert lossy.metrics.value("repro_network_messages_lost_total") > 0

        dup = make_cluster(network_cls=DuplicatingNetwork,
                           network_kwargs={"duplicate_probability": 0.5}, seed=7)
        for i in range(10):
            dup.update(i % 3, S.insert(i))
        dup.run()
        assert dup.metrics.value("repro_network_messages_duplicated_total") > 0

    def test_cluster_fault_counts(self):
        c = make_cluster()
        c.update(0, S.insert(1))
        c.crash(2)
        c.run()
        assert c.metrics.value("repro_cluster_dropped_to_crashed_total") > 0
        c.recover(2)
        c.run()
        assert c.metrics.value("repro_cluster_recoveries_total") == 1
        assert c.metrics.value("repro_cluster_crashes_total") == 1


class TestTraceCoverage:
    def test_untraced_run_records_nothing(self):
        c = make_cluster()
        c.update(0, S.insert(1))
        c.run()
        assert c.tracer.enabled is False
        assert c.tracer.records() == []

    def test_message_lifecycle_counts_match_network(self):
        tracer = SimTracer()
        c = make_cluster(tracer=tracer, network_cls=LossyNetwork,
                         network_kwargs={"drop_probability": 0.3}, seed=3)
        for i in range(12):
            c.update(i % 3, S.insert(i))
        c.run()
        counts = tracer.counts()
        reg = c.metrics
        assert counts["message.send"] == reg.value("repro_network_messages_sent_total")
        assert counts.get("message.lost", 0) == reg.value(
            "repro_network_messages_lost_total")
        assert counts["message.deliver"] == reg.value(
            "repro_network_messages_delivered_total")
        assert counts["op.update"] == 12

    def test_fault_events_recorded(self):
        tracer = SimTracer()
        c = make_cluster(tracer=tracer)
        c.update(0, S.insert(1))
        c.crash(1, drop_outgoing=True)
        c.run()
        c.recover(1)
        c.run()
        c.anti_entropy(rounds=2)
        counts = tracer.counts()
        assert counts["replica.crash"] == 1
        assert counts["replica.recover"] == 1
        assert counts.get("sync.request", 0) >= 1
        assert counts.get("anti_entropy.round", 0) >= 1
        crash = next(tracer.iter_records("replica.crash"))
        assert crash.pid == 1 and crash.attrs["drop_outgoing"] is True

    def test_channel_events_recorded(self):
        tracer = SimTracer()
        c = make_cluster(tracer=tracer)
        c.hold(0, 1)
        c.release(0, 1)
        c.partition([[0], [1, 2]])
        c.heal()
        counts = tracer.counts()
        assert counts["channel.hold"] == 1
        assert counts["channel.release"] == 1
        assert counts["channel.partition"] == 1
        assert counts["channel.heal"] == 1
        part = next(tracer.iter_records("channel.partition"))
        assert part.attrs["groups"] == [[0], [1, 2]]

    def test_query_event_carries_replay_cost(self):
        tracer = SimTracer()
        c = make_cluster(2, tracer=tracer,
                         factory=lambda p, n: UniversalReplica(p, n, SetSpec()))
        c.update(0, S.insert(1))
        c.update(0, S.insert(2))
        c.query(0, "read")
        query = next(tracer.iter_records("op.query"))
        assert query.attrs["replayed"] == 2
        assert query.attrs["query"] == "read"

    def test_deliver_spans_run_from_send_to_delivery(self):
        tracer = SimTracer()
        c = make_cluster(tracer=tracer)
        c.update(0, S.insert(1))
        c.run()
        for span in tracer.iter_records("message.deliver"):
            assert span.is_span
            assert span.end >= span.start

    def test_recovered_replica_keeps_counting_into_shared_registry(self):
        c = make_cluster()
        c.update(0, S.insert(1))
        c.run()
        c.query(1, "read")
        before = c.metrics.value("repro_replica_replayed_updates_total", pid=1)
        assert before > 0
        c.crash(1)
        c.recover(1)
        c.run()
        c.anti_entropy(rounds=2)
        c.query(1, "read")
        after = c.metrics.value("repro_replica_replayed_updates_total", pid=1)
        assert after > before
        assert c.replicas[1].metrics is c.metrics


class TestPerformanceGuards:
    def test_default_tracer_is_shared_noop(self):
        from repro.obs.tracer import NULL_TRACER
        a = make_cluster()
        b = make_cluster()
        assert a.tracer is NULL_TRACER
        assert b.network.tracer is NULL_TRACER

    def test_virtual_time_gauge_tracks_now(self):
        c = make_cluster()
        c.update(0, S.insert(1))
        c.run()
        assert c.metrics.value("repro_cluster_virtual_time") == c.now
        c.advance(5.0)
        assert c.metrics.value("repro_cluster_virtual_time") == c.now
