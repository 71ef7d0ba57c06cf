"""Scale sanity: the guarantees hold (and stay affordable) beyond toy sizes."""

from __future__ import annotations

from repro.analysis import (
    collect_message_stats,
    staleness_report,
    update_consistent_convergence,
)
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.sim.workload import run_workload, zipf_set_workload
from repro.specs import SetSpec

SPEC = SetSpec()


class TestSixteenProcesses:
    def test_uc_convergence_at_n16(self):
        c = Cluster(16, lambda p, n: UniversalReplica(p, n, SPEC),
                    latency=ExponentialLatency(2.0), seed=12)
        wl = zipf_set_workload(16, 600, support=20, seed=12)
        run_workload(c, wl)
        ok, _, states = update_consistent_convergence(c, SPEC)
        assert ok
        assert len(states) == 16

    def test_message_complexity_at_scale(self):
        c = Cluster(16, lambda p, n: UniversalReplica(p, n, SPEC),
                    latency=ExponentialLatency(2.0), seed=13)
        wl = [w for w in zipf_set_workload(16, 300, seed=13) if w.is_update]
        run_workload(c, wl)
        stats = collect_message_stats(c)
        assert stats.broadcast_optimal()
        assert stats.sends_per_update == 15.0
        # Timestamp stays tiny even at 300 ops x 16 processes.
        assert stats.max_timestamp_bits <= 14


class TestLongRun:
    def test_two_thousand_operations(self):
        c = Cluster(
            4,
            lambda p, n: UniversalReplica(
                p, n, SPEC, replay="checkpoint", checkpoint_interval=128,
            ),
            latency=ExponentialLatency(1.5), seed=14,
        )
        wl = zipf_set_workload(4, 2000, support=30, seed=14)
        run_workload(c, wl)
        ok, _, _ = update_consistent_convergence(c, SPEC)
        assert ok
        report = staleness_report(c.trace)
        assert report.queries > 0
        # Post-drain there are no permanently stale reads: the trace's
        # stale ones were all transient (bounded version lag).
        assert report.max_version_lag < 2000

    def test_crash_storm_at_scale(self):
        c = Cluster(8, lambda p, n: UniversalReplica(p, n, SPEC),
                    latency=ExponentialLatency(2.0), seed=15)
        wl = [w for w in zipf_set_workload(8, 300, seed=15) if w.is_update]
        for i, item in enumerate(sorted(wl, key=lambda w: w.time)):
            if item.pid in c.crashed:
                continue
            c.run_until(item.time)
            c.update(item.pid, item.op)
            if i in (60, 120, 180) and len(c.alive()) > 2:
                c.crash(max(c.alive()))
        c.run()
        ok, _, states = update_consistent_convergence(c, SPEC)
        assert ok
        assert len(states) == len(c.alive()) >= 2
