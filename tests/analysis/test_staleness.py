"""Tests for the staleness metrics."""

from __future__ import annotations

import pytest

from repro.analysis.staleness import inclusion_latencies, staleness_report
from repro.core.universal import UniversalReplica
from repro.objects.causal import CausalApplyReplica
from repro.sim import Cluster
from repro.sim.network import FixedLatency
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()


def cluster(latency=5.0, n=2):
    return Cluster(n, lambda p, total: UniversalReplica(p, total, SPEC),
                   latency=FixedLatency(latency))


class TestStalenessReport:
    def test_no_queries(self):
        c = cluster()
        c.update(0, S.insert(1))
        rep = staleness_report(c.trace)
        assert rep.queries == 0
        assert rep.fresh_fraction() == 1.0

    def test_fresh_query(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.run()
        c.query(1, "read")
        rep = staleness_report(c.trace)
        assert rep.queries == 1
        assert rep.stale_queries == 0
        assert rep.max_version_lag == 0

    def test_stale_query_counts_missing_updates(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.update(0, S.insert(2))
        c.query(1, "read")  # saw neither
        rep = staleness_report(c.trace)
        assert rep.stale_queries == 1
        assert rep.max_version_lag == 2
        assert rep.fresh_fraction() == 0.0

    def test_time_lag_measures_oldest_missing(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.advance(7.0)  # message needs 5.0 but is only due at t=5 < 7... still pending until run
        c.query(1, "read")
        rep = staleness_report(c.trace)
        assert rep.max_time_lag == pytest.approx(7.0)

    def test_own_updates_never_stale(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.query(0, "read")
        rep = staleness_report(c.trace)
        assert rep.stale_queries == 0

    def test_mean_aggregation(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.query(1, "read")   # lag 1
        c.run()
        c.query(1, "read")   # lag 0
        rep = staleness_report(c.trace)
        assert rep.mean_version_lag == pytest.approx(0.5)

    def test_requires_metadata(self):
        # The causal baseline records no witness (every Algorithm 1 replica does).
        c = Cluster(2, lambda p, n: CausalApplyReplica(p, n, SPEC))
        c.update(0, S.insert(1))
        c.query(0, "read")
        with pytest.raises(ValueError, match="timestamp"):
            staleness_report(c.trace)

    def test_lower_latency_means_fresher(self):
        from repro.sim.network import ExponentialLatency
        from repro.sim.workload import random_set_workload, run_workload

        reports = {}
        for latency in (0.1, 20.0):
            c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC),
                        latency=ExponentialLatency(latency), seed=4)
            run_workload(c, random_set_workload(3, 80, seed=4), drain=False)
            reports[latency] = staleness_report(c.trace)
            c.run()
        assert reports[0.1].mean_version_lag < reports[20.0].mean_version_lag


class TestInclusionLatency:
    def test_measures_until_seen_everywhere(self):
        c = cluster(latency=5.0)
        c.update(0, S.insert(1))
        c.query(0, "read")  # issuer sees immediately
        c.run()             # deliver at t=5
        c.query(1, "read")  # p1 confirms at t=5
        lats = inclusion_latencies(c.trace)
        assert len(lats) == 1
        (latency,) = lats.values()
        assert latency == pytest.approx(5.0)

    def test_unconfirmed_updates_omitted(self):
        c = cluster()
        c.update(0, S.insert(1))  # p1 never queries
        assert inclusion_latencies(c.trace) == {}
