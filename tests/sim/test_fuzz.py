"""Fuzzed adversarial schedules: the strongest empirical evidence that
Algorithm 1's guarantees hold under *any* schedule, not just i.i.d.
latencies."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import update_consistent_convergence
from repro.core.adt import _canonical
from repro.core.criteria.witness import verify_suc_witness
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.sim.fuzz import AdversaryFuzzer
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()


def script(n_ops: int, n_procs: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        pid = int(rng.integers(n_procs))
        v = int(rng.integers(4))
        ops.append((pid, S.insert(v) if rng.random() < 0.6 else S.delete(v)))
    return ops


class TestFuzzerMechanics:
    def test_determinism(self):
        def one_run():
            c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC), seed=1)
            fz = AdversaryFuzzer(c, seed=42, crash_budget=1)
            fz.run_workload(script(20, 3, 7))
            return fz.report.moves, {p: frozenset(s) for p, s in c.states().items()}

        assert one_run() == one_run()

    def test_report_counts_moves(self):
        c = Cluster(4, lambda p, n: UniversalReplica(p, n, SPEC), seed=1)
        fz = AdversaryFuzzer(c, seed=5, crash_budget=2)
        report = fz.run_workload(script(60, 4, 5))
        assert len(report.moves) == (
            report.holds + report.releases + report.partitions
            + report.heals + report.crashes + report.recoveries
        )
        assert report.summary()

    def test_recoveries_disabled_by_default(self):
        c = Cluster(4, lambda p, n: UniversalReplica(p, n, SPEC), seed=1)
        fz = AdversaryFuzzer(c, seed=5, crash_budget=2)
        report = fz.run_workload(script(60, 4, 5))
        assert report.recoveries == 0

    def test_recoveries_happen_when_enabled(self):
        # With a generous probability a crash is eventually recovered.
        for seed in range(20):
            c = Cluster(4, lambda p, n: UniversalReplica(p, n, SPEC), seed=seed)
            fz = AdversaryFuzzer(c, seed=seed, crash_budget=3,
                                 recover_probability=0.5)
            report = fz.run_workload(script(80, 4, seed))
            if report.recoveries > 0:
                assert c.metrics.value("repro_cluster_recoveries_total") == report.recoveries
                assert any(m.startswith("recover p") for m in report.moves)
                break
        else:  # pragma: no cover - would indicate a probability bug
            raise AssertionError("no recovery across 20 seeds")

    def test_never_crashes_last_process(self):
        c = Cluster(2, lambda p, n: UniversalReplica(p, n, SPEC), seed=1)
        fz = AdversaryFuzzer(c, seed=9, crash_budget=10)
        fz.run_workload(script(80, 2, 9))
        assert len(c.alive()) >= 1

    def test_crashes_respect_budget(self):
        c = Cluster(5, lambda p, n: UniversalReplica(p, n, SPEC), seed=1)
        fz = AdversaryFuzzer(c, seed=11, crash_budget=2)
        fz.run_workload(script(100, 5, 11))
        assert len(c.crashed) <= 2

    def test_no_message_loss_by_default(self):
        c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC), seed=1)
        fz = AdversaryFuzzer(c, seed=3, crash_budget=3)
        assert not fz.allow_message_loss


class TestFuzzedGuarantees:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_convergence_under_any_schedule(self, seed):
        c = Cluster(4, lambda p, n: UniversalReplica(p, n, SPEC), seed=seed)
        fz = AdversaryFuzzer(c, seed=seed, crash_budget=2)
        fz.run_workload(script(25, 4, seed))
        ok, _, states = update_consistent_convergence(c, SPEC)
        assert ok, (fz.report.summary(), states)

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_witness_verifies_under_any_schedule(self, seed):
        c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC), seed=seed)
        fz = AdversaryFuzzer(c, seed=seed)
        fz.run_workload(script(15, 3, seed), queries_per_op=0.5)
        for pid in c.alive():
            c.query(pid, "read")
        h = c.trace.to_history()
        res = verify_suc_witness(h, SPEC, c.trace.suc_witness(h))
        assert res, res.reason

    @given(st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_relay_restores_agreement_under_message_loss(self, seed):
        """With crash-with-loss adversaries, relay replicas' survivors
        still agree among themselves (uniform reliable broadcast)."""
        c = Cluster(
            4, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=seed
        )
        fz = AdversaryFuzzer(c, seed=seed, crash_budget=2, allow_message_loss=True)
        fz.run_workload(script(25, 4, seed))
        states = {_canonical(s) for s in c.states().values()}
        assert len(states) == 1, fz.report.summary()

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_convergence_with_crash_recovery(self, seed):
        """Crash-recovery chaos: recovered processes rejoin from their
        durable logs and the whole cluster still agrees after anti-entropy."""
        c = Cluster(
            4, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=seed
        )
        fz = AdversaryFuzzer(c, seed=seed, crash_budget=2,
                             allow_message_loss=True, recover_probability=0.3)
        fz.run_workload(script(25, 4, seed), anti_entropy_rounds=5)
        states = {_canonical(s) for s in c.states().values()}
        assert len(states) == 1, fz.report.summary()

    @given(st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_convergence_under_lossy_network(self, seed):
        from repro.sim import LossyNetwork

        c = Cluster(
            4, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=seed,
            network_cls=LossyNetwork, network_kwargs={"drop_probability": 0.2},
        )
        fz = AdversaryFuzzer(c, seed=seed)
        fz.run_workload(script(20, 4, seed), anti_entropy_rounds=5)
        states = {_canonical(s) for s in c.states().values()}
        assert len(states) == 1, fz.report.summary()

    @given(st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_convergence_under_duplicating_network(self, seed):
        from repro.sim import DuplicatingNetwork

        c = Cluster(
            4, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=seed,
            network_cls=DuplicatingNetwork,
            network_kwargs={"duplicate_probability": 0.3},
        )
        fz = AdversaryFuzzer(c, seed=seed)
        fz.run_workload(script(20, 4, seed), anti_entropy_rounds=5)
        ok, _, states = update_consistent_convergence(c, SPEC)
        assert ok, (fz.report.summary(), states)


class TestChaosSmoke:
    def test_chaos_smoke_short_budget(self):
        from repro.sim.fuzz import chaos_smoke

        out = chaos_smoke(budget_seconds=1.0, procs=3, ops=10)
        assert out["runs"] >= 1
        assert out["first_seed"] == 0


class TestRelay:
    def test_relay_floods_partial_broadcasts(self):
        # p0's broadcast reaches only p1 before the crash loses the rest;
        # relay makes p1 re-broadcast, so p2 still learns the update.
        c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=0)
        c.network.hold(0, 2)  # p0 -> p2 parked
        c.update(0, S.insert(1))
        c.run()  # p1 received and relayed
        c.crash(0, drop_outgoing=True)  # the parked copy is lost
        assert c.query(2, "read") == frozenset({1})

    def test_without_relay_partial_broadcast_diverges(self):
        c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC), seed=0)
        c.network.hold(0, 2)
        c.update(0, S.insert(1))
        c.run()
        c.crash(0, drop_outgoing=True)
        assert c.query(2, "read") == frozenset()  # p2 never learns

    def test_relay_deduplicates(self):
        c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=0)
        c.update(0, S.insert(1))
        c.run()
        # Every replica saw the update exactly once despite the flood.
        assert all(r.log_length == 1 for r in c.replicas)

    def test_relay_message_overhead(self):
        c = Cluster(4, lambda p, n: UniversalReplica(p, n, SPEC, relay=True), seed=0)
        c.update(0, S.insert(1))
        c.run()
        # Flooding: the original n-1 sends plus each receiver's relay.
        assert c.metrics.value("repro_network_messages_sent_total") == 3 + 3 * 3

    def test_gc_refuses_relay(self):
        import pytest

        from repro.core.checkpoint import GarbageCollectedReplica

        with pytest.raises(ValueError, match="relay"):
            GarbageCollectedReplica(0, 2, SPEC, relay=True)


class TestChaosSmokeClockInjection:
    """Regression for the uqlint SIM101 self-application fix: the wall
    clock only bounds how many seeded runs happen and is injectable, so
    the smoke itself can be driven deterministically."""

    def test_injected_clock_bounds_runs_deterministically(self):
        from repro.sim.fuzz import chaos_smoke

        ticks = iter(range(100))

        def fake_clock() -> float:
            return float(next(ticks) * 40.0)  # 40 "seconds" per observation

        # deadline = t0 + budget = 50; loop checks observe t=40 (< 50, run)
        # then t=80 (>= 50, stop): exactly two seeds complete.
        out = chaos_smoke(budget_seconds=50.0, procs=3, ops=8, clock=fake_clock)
        assert out["runs"] == 2

    def test_injected_clock_always_completes_one_run(self):
        from repro.sim.fuzz import chaos_smoke

        out = chaos_smoke(budget_seconds=-1.0, procs=3, ops=8, clock=lambda: 0.0)
        assert out["runs"] == 1

    def test_fuzz_module_has_no_wall_clock_calls(self):
        """The linter guards the fix: SIM101 must stay clean on fuzz.py
        (the only wall-clock *reference* is the injection default)."""
        from pathlib import Path

        from repro.lint import lint_source
        from repro.sim import fuzz as fuzz_module

        source = Path(fuzz_module.__file__).read_text()
        assert [f.render() for f in lint_source(source, "fuzz.py")] == []

    def test_removing_the_injection_would_be_caught(self):
        """Anti-regression: a direct wall-clock call in the budget loop is
        exactly what SIM101 flags."""
        from repro.lint import lint_source

        source = (
            "import time\n"
            "def chaos(budget):\n"
            "    deadline = time.monotonic() + budget\n"
            "    while time.monotonic() < deadline:\n"
            "        pass\n"
        )
        codes = [f.code for f in lint_source(source)]
        assert codes == ["SIM101", "SIM101"]
