"""The fault-injection suite: crash-recovery, lossy/duplicating channels,
anti-entropy repair, and the convergence watchdog.

The paper's Section VII-A assumes crash-stop processes over reliable
channels.  These tests exercise the simulator *beyond* that envelope —
crash-with-recovery from a durable log, seeded message loss and
duplication — and check that the documented upgrades (epidemic relay,
anti-entropy sync) restore convergence, while their absence demonstrably
does not.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ConvergenceWatchdog,
    converged,
    log_divergence,
)
from repro.core.adt import _canonical
from repro.core.checkpoint import GarbageCollectedReplica, StabilityViolation
from repro.core.universal import UniversalReplica
from repro.sim import Cluster, DuplicatingNetwork, LossyNetwork
from repro.sim.network import FixedLatency
from repro.specs import SetSpec
from repro.specs import set_spec as S
from tests.counts import collected

SPEC = SetSpec()


def cluster(n=4, *, relay=False, **kw):
    return Cluster(
        n, lambda pid, total: UniversalReplica(pid, total, SPEC, relay=relay), **kw
    )


def states_of(c):
    return {_canonical(s) for s in c.states().values()}


class TestCrashSemantics:
    """Satellite: crash must interact cleanly with holds and partitions."""

    def test_crash_dissolves_holds_involving_victim(self):
        c = cluster()
        c.hold(0, 1)
        c.hold(2, 0)
        c.hold(2, 3)
        c.crash(0)
        assert c.network._holds == {(2, 3)}

    def test_heal_does_not_inflate_dropped_to_crashed(self):
        # Regression: messages parked toward a pid that then crashed used
        # to be re-queued by heal() and counted at delivery time; they are
        # now dropped (and counted) once, at crash time.
        c = cluster()
        c.partition([[0, 1], [2, 3]])
        c.update(2, S.insert(9))     # 2→0 and 2→1 are parked
        c.crash(0)
        before = c.metrics.value("repro_cluster_dropped_to_crashed_total")
        assert before == 1           # the parked 2→0 copy, counted at crash
        c.heal()
        c.run()
        assert c.metrics.value("repro_cluster_dropped_to_crashed_total") == before
        assert c.query(1, "read") == frozenset({9})

    def test_crashed_pid_rejected_as_hold_endpoint(self):
        c = cluster()
        c.crash(2)
        with pytest.raises(ValueError, match="crashed"):
            c.hold(2, 0)
        with pytest.raises(ValueError, match="crashed"):
            c.hold(1, 2)

    def test_partition_filters_crashed_pids(self):
        c = cluster()
        c.crash(3)
        c.partition([[0, 1], [2, 3]])    # 3 silently excluded: it is dead
        assert all(3 not in pair for pair in c.network._holds)

    def test_outbound_in_flight_survives_crash(self):
        # Reliability: messages the victim already sent are delivered.
        c = cluster(n=3)
        c.hold(0, 2)
        c.update(0, S.insert(1))
        c.crash(0)                        # hold dissolved, 0→2 released
        c.run()
        assert c.query(2, "read") == frozenset({1})

    def test_crash_is_idempotent(self):
        c = cluster()
        c.update(0, S.insert(1))
        c.crash(1)
        first = c.metrics.value("repro_cluster_dropped_to_crashed_total")
        c.crash(1)
        assert c.metrics.value("repro_cluster_dropped_to_crashed_total") == first


class TestCrashRecovery:
    def test_recover_requires_a_crash(self):
        c = cluster()
        with pytest.raises(ValueError, match="not crashed"):
            c.recover(0)

    def test_recover_restores_full_log(self):
        c = cluster(n=3)
        c.update(0, S.insert(1))
        c.update(0, S.insert(2))
        c.run()
        c.crash(0)
        c.update(1, S.insert(3))
        c.run()
        c.recover(0)
        c.run()
        assert c.metrics.value("repro_cluster_recoveries_total") == 1
        # The recovered replica kept its own updates and pulled the missed one.
        assert c.query(0, "read") == frozenset({1, 2, 3})
        assert converged(c)

    def test_recover_with_amnesia_pulls_from_peers(self):
        # fsync_point=0: the log is gone, but peers received the broadcasts
        # and the sync handshake restores everything.
        c = cluster(n=3)
        c.update(0, S.insert(1))
        c.update(1, S.insert(2))
        c.run()
        c.crash(0)
        c.recover(0, fsync_point=0)
        c.run()
        assert c.query(0, "read") == frozenset({1, 2})
        assert converged(c)

    def test_clock_survives_amnesia_no_timestamp_reuse(self):
        # The Lamport clock is write-ahead persisted: even with a truncated
        # log the recovered process must not re-issue a (clock, pid) stamp
        # that copies of its pre-crash broadcasts still carry.
        c = cluster(n=3)
        c.update(0, S.insert(1))
        old_clock = c.replicas[0].clock.value
        c.crash(0)
        fresh = c.recover(0, fsync_point=0)
        assert fresh.clock.value >= old_clock
        c.update(0, S.insert(2))          # stamps above everything pre-crash
        c.run()
        assert converged(c)
        assert c.query(1, "read") == frozenset({1, 2})

    def test_recovered_own_lost_update_spreads_back(self):
        # Crash mid-broadcast with message loss: only the durable log still
        # has the update.  Recovery + sync hand it back to the peers.
        c = cluster(n=3)
        c.update(0, S.insert(7))
        c.crash(0, drop_outgoing=True)    # nobody received it
        c.run()
        assert c.query(1, "read") == frozenset()
        c.recover(0)                      # durable log survived in full
        c.anti_entropy()
        assert converged(c)
        assert c.query(1, "read") == frozenset({7})

    def test_recovered_process_accepts_operations(self):
        c = cluster(n=3)
        c.crash(2)
        c.recover(2)
        c.update(2, S.insert(5))          # must not raise
        c.run()
        assert converged(c)

    def test_crash_recover_converge_under_lossy_and_duplicating(self):
        # Acceptance scenario: crash a replica mid-broadcast, recover it
        # from its persisted log, heal the network — identical states on
        # all replicas under both fault-injection networks with relay=True.
        for network_cls, kwargs in [
            (LossyNetwork, {"drop_probability": 0.2}),
            (DuplicatingNetwork, {"duplicate_probability": 0.3}),
        ]:
            c = cluster(
                n=4, relay=True, seed=2,
                network_cls=network_cls, network_kwargs=kwargs,
            )
            for i in range(6):
                c.update(i % 4, S.insert(i))
            c.partition([[0, 1], [2, 3]])
            c.update(0, S.insert(10))
            c.crash(0, drop_outgoing=True)   # mid-broadcast, copies lost
            c.update(2, S.insert(11))
            c.run()
            c.recover(0)                     # durable log has insert(10)
            c.heal()
            c.run()
            c.anti_entropy(rounds=8)
            assert len(states_of(c)) == 1, network_cls.__name__
            # insert(10) survived only in p0's durable log, yet spread.
            assert c.query(3, "read") >= frozenset({10, 11}), network_cls.__name__


class TestLossAndRelay:
    """ISSUE tentpole: relay=True converges under seeded loss while
    relay=False demonstrably does not (same seed, same workload)."""

    def run_lossy(self, relay):
        c = cluster(n=4, relay=relay, seed=2,
                    network_cls=LossyNetwork,
                    network_kwargs={"drop_probability": 0.25})
        for i in range(12):
            c.update(i % 4, S.insert(i))
        c.run()
        return c

    def test_relay_converges_under_loss(self):
        c = self.run_lossy(relay=True)
        assert c.metrics.value("repro_network_messages_lost_total") > 0
        assert len(states_of(c)) == 1

    def test_no_relay_diverges_under_loss(self):
        c = self.run_lossy(relay=False)
        assert c.metrics.value("repro_network_messages_lost_total") > 0
        assert len(states_of(c)) > 1

    def test_anti_entropy_repairs_even_without_relay(self):
        c = self.run_lossy(relay=False)
        assert len(states_of(c)) > 1
        c.anti_entropy(rounds=10)
        assert len(states_of(c)) == 1

    def test_duplicates_are_harmless(self):
        c = cluster(n=3, seed=0,
                    network_cls=DuplicatingNetwork,
                    network_kwargs={"duplicate_probability": 0.5})
        for i in range(10):
            c.update(i % 3, S.insert(i))
        c.run()
        assert c.metrics.value("repro_network_messages_duplicated_total") > 0
        assert len(states_of(c)) == 1
        # Deduplication: no replica applied an update twice.
        assert all(r.log_length == 10 for r in c.replicas)


class TestConvergenceWatchdog:
    def test_reports_agreement_time(self):
        c = cluster(n=3, latency=FixedLatency(1.0))
        c.update(0, S.insert(1))
        report = ConvergenceWatchdog(c).watch()
        assert report.converged and report.quiescent
        assert not report.flagged
        assert report.steps == 2
        assert report.time_to_agreement == 1.0
        assert report.final_divergence == {0: 0, 1: 0, 2: 0}
        assert "converged" in report.summary()

    def test_flags_divergent_run(self):
        c = self_lossy = cluster(n=4, seed=2,
                                 network_cls=LossyNetwork,
                                 network_kwargs={"drop_probability": 0.25})
        for i in range(12):
            c.update(i % 4, S.insert(i))
        report = ConvergenceWatchdog(self_lossy).watch()
        assert report.quiescent and not report.converged
        assert report.flagged
        assert report.distinct_states > 1
        assert max(report.final_divergence.values()) > 0
        assert "DIVERGED" in report.summary()

    def test_flags_non_quiescent_run(self):
        c = cluster(n=3)
        for i in range(5):
            c.update(0, S.insert(i))
        report = ConvergenceWatchdog(c).watch(max_steps=3)
        assert not report.quiescent
        assert report.flagged
        assert report.undelivered > 0
        assert "NON-QUIESCENT" in report.summary()

    def test_log_divergence_counts_missing_entries(self):
        c = cluster(n=3)
        c.network.hold(0, 2)
        c.update(0, S.insert(1))
        c.run()
        div = log_divergence(c)
        assert div[2] == 1 and div[0] == 0 and div[1] == 0

    def test_check_every_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ConvergenceWatchdog(cluster(), check_every=0)


class TestGCUnderPartition:
    """Satellite: GarbageCollectedReplica on FIFO channels survives a
    partition/heal cycle — no spurious StabilityViolation, and it
    converges to the same state as plain Algorithm 1."""

    def script(self):
        ops = []
        for i in range(40):
            v = i % 7
            ops.append((i % 3, S.insert(v) if i % 3 else S.delete(v)))
        return ops

    def drive(self, factory):
        c = Cluster(3, factory, fifo=True, seed=5)
        ops = self.script()
        for i, (pid, op) in enumerate(ops):
            c.update(pid, op)
            if i == 10:
                c.partition([[0], [1, 2]])
            if i == 25:
                c.heal()
            if i % 4 == 0:
                c.run()
        c.heal()
        c.run()
        return c

    def test_partition_heal_cycle_no_spurious_violation(self):
        gc = self.drive(
            lambda p, n: GarbageCollectedReplica(
                p, n, SPEC, gc_interval=8, checkpoint_interval=8,
            )
        )  # would raise StabilityViolation on a FIFO regression
        plain = self.drive(
            lambda p, n: UniversalReplica(p, n, SPEC)
        )
        assert len(states_of(gc)) == 1
        assert states_of(gc) == states_of(plain)
        # The test is only meaningful if GC actually collected entries.
        assert sum(collected(r) for r in gc.replicas) > 0

    def test_violation_still_detected_on_raw_reorder(self):
        # The detector itself still works: a non-FIFO message under the
        # collected frontier raises rather than silently diverging.
        r = GarbageCollectedReplica(0, 2, SPEC, gc_interval=1)
        r.on_message(1, (5, 1, S.insert(1)))
        r.heard = [5, 5]
        r.collect_garbage()
        with pytest.raises(StabilityViolation):
            r.on_message(1, (2, 1, S.insert(2)))


class TestGCUnderHoldsAndCrashes:
    """Satellite: frontier safety under hold/release schedules and
    crashed-peer heartbeats (the claims GC's stability argument rests on
    must survive every FIFO-preserving adversary move)."""

    def gc_cluster(self, n=3, **kw):
        return Cluster(
            n,
            lambda pid, total: GarbageCollectedReplica(
                pid, total, SPEC, gc_interval=8
            ),
            fifo=True,
            **kw,
        )

    def test_hold_release_cycle_no_spurious_violation(self):
        c = self.gc_cluster(seed=11)
        for i in range(40):
            c.update(i % 3, S.insert(i % 7) if i % 2 else S.delete(i % 7))
            if i == 8:
                c.hold(0, 1)
                c.hold(2, 1)
            if i == 24:
                c.release(0, 1)
                c.release(2, 1)
            if i % 4 == 0:
                c.run()  # would raise StabilityViolation on a regression
        c.heal()
        c.run()
        c.anti_entropy()
        assert len(states_of(c)) == 1
        assert sum(collected(r) for r in c.replicas) > 0

    def test_held_heartbeats_cannot_outrun_their_updates(self):
        # A held channel parks updates and heartbeats alike; releasing
        # must deliver them in send order, so heard never claims a clock
        # whose update is still parked on the same channel.
        c = self.gc_cluster(seed=3)
        c.update(0, S.insert(1))
        c.run()
        c.hold(0, 1)
        c.update(0, S.insert(2))
        c.network.broadcast(0, c.replicas[0].heartbeat(), c.now)
        hb_clock = c.replicas[0].clock.value
        c.run()
        # The heartbeat is parked with its update: p1 heard nothing new.
        assert c.replicas[1].heard[0] < hb_clock
        c.release(0, 1)
        c.run()
        assert c.replicas[1].heard[0] >= hb_clock
        c.heal()
        c.run()
        assert len(states_of(c)) == 1

    def test_crashed_peer_heartbeats_dropped_not_counted(self):
        # An in-flight heartbeat from a peer that crashes mid-broadcast
        # (drop_outgoing) must be dropped, not advance heard: counting it
        # would let the frontier pass updates the crash destroyed.
        c = self.gc_cluster(seed=9)
        for _ in range(2):
            for pid in range(3):
                c.update(pid, S.insert(pid))
            c.run()
        heard_before = list(c.replicas[0].heard)
        c.update(2, S.insert(6))  # in flight, then lost with the crash
        c.network.broadcast(2, c.replicas[2].heartbeat(), c.now)
        c.crash(2, drop_outgoing=True)
        c.run()
        assert c.replicas[0].heard[2] == heard_before[2]

    def test_heartbeats_to_crashed_process_dropped(self):
        c = self.gc_cluster(seed=9)
        c.crash(2)
        c.network.broadcast(0, c.replicas[0].heartbeat(), c.now)
        before = c.metrics.value("repro_cluster_dropped_to_crashed_total")
        c.run()
        assert c.metrics.value("repro_cluster_dropped_to_crashed_total") > before


class TestGCStateTransferScenario:
    """Satellite: the CI chaos scenario — GC + crash + fsync-truncated
    recovery + partition/heal — must exercise state transfer and
    converge (see :func:`repro.sim.fuzz.gc_state_transfer_scenario`)."""

    def test_scenario_converges_and_transfers(self):
        from repro.sim.fuzz import gc_state_transfer_scenario

        stats = gc_state_transfer_scenario(0)
        assert stats["state_transfers"] >= 1
        assert stats["state_installs"] >= 1

    def test_scenario_across_seeds(self):
        from repro.sim.fuzz import gc_state_transfer_scenario

        for seed in range(1, 4):
            gc_state_transfer_scenario(seed)

    def test_gc_smoke_budget_loop(self):
        from repro.sim.fuzz import gc_chaos_smoke

        ticks = iter([0.0, 100.0, 200.0])
        stats = gc_chaos_smoke(50.0, clock=lambda: next(ticks))
        assert stats["runs"] == 1  # fake clock: one run, then budget spent


class TestGCOverLossyLinks:
    """A lost frame ends its channel's link epoch where FIFO order puts
    the loss (DESIGN.md §11): a later live frame or heartbeat from the
    same author claims nothing until a sync round on the new epoch has
    filled the gap, so ``heard`` never covers an update a replica lacks
    and GC never folds over one."""

    @staticmethod
    def assert_heard_is_sound(c):
        issued = [r.meta["timestamp"] for r in c.trace.updates()]
        for r in c.replicas:
            for cl, j in issued:
                if cl <= r.heard[j]:
                    assert r._covers_uid(cl, j), (
                        f"p{r.pid} claims heard[{j}] = {r.heard[j]} but "
                        f"lacks {(cl, j)}"
                    )

    @pytest.mark.parametrize("seed", range(5))
    def test_heard_never_claims_a_lost_update(self, seed):
        c = Cluster(
            3, lambda p, n: GarbageCollectedReplica(p, n, SetSpec(), gc_interval=16),
            seed=seed, fifo=True, network_cls=LossyNetwork,
            network_kwargs={"drop_probability": 0.15},
        )
        for round_ in range(30):
            for pid in range(3):
                c.update(pid, S.insert(10 * round_ + pid))
            c.run()
            for pid in range(3):
                c.heartbeat(pid)
            c.run()
            self.assert_heard_is_sound(c)
        assert c.metrics.total("repro_network_messages_lost_total") > 0
        assert c.metrics.total("repro_replica_collected_entries_total") > 0
        c.anti_entropy(rounds=20)
        self.assert_heard_is_sound(c)
        assert len({_canonical(s) for s in c.states().values()}) == 1
        assert c.states()[0] == {10 * r + p for r in range(30) for p in range(3)}

    def test_a_lost_frame_opens_a_new_epoch_that_a_round_completes(self):
        c = Cluster(
            2, lambda p, n: GarbageCollectedReplica(p, n, SetSpec()),
            fifo=True, network_cls=LossyNetwork,
            network_kwargs={"drop_probability": 1.0},
        )
        r1 = c.replicas[1]
        c.update(0, S.insert("lost"))  # dropped on the wire
        assert r1.link_epochs[0] == "complete"  # not yet: the loss is in flight
        c.network.drop_probability = 0.0
        # the break comes due: a new epoch opens, its sync request goes out
        assert c.network.peek_time() == 2.0
        assert r1.link_epochs[0] == "open"
        c.update(0, S.insert("live"))
        while "live" not in r1.local_state():
            assert c.step()
        assert r1.heard[0] == 0  # the live frame after the gap claims nothing
        c.run()
        assert r1.link_epochs[0] == "complete"  # the new round completed
        assert r1.local_state() == {"lost", "live"}  # and filled the gap
        assert r1.heard[0] == 2
        assert c.network.pending_count() == 0
