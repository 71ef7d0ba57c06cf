"""Integration: every Section VII-C optimization is observationally
equivalent to plain Algorithm 1 — same queries, same answers, same final
states, under identical adversarial schedules.

(The per-pair equivalences also live next to each optimization's unit
tests; this is the all-at-once cross-check including the convergence
certificate.)
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import update_consistent_convergence
from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.sim.workload import (
    collab_edit_workload,
    conflict_heavy_set_workload,
    counter_workload,
    run_workload,
)
from repro.specs import CounterSpec, LogSpec, SetSpec


def run(replica_factory, wl, seed, n=3, fifo=False):
    c = Cluster(n, replica_factory, latency=ExponentialLatency(4.0),
                seed=seed, fifo=fifo)
    outputs = run_workload(c, wl)
    finals = [c.query(pid, "read") for pid in range(n)]
    return outputs, finals, c


class TestSetStrategies:
    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_universal_vs_checkpoint_vs_gc(self, seed):
        spec = SetSpec()
        wl = conflict_heavy_set_workload(3, 30, seed=seed)
        base = run(lambda p, n: UniversalReplica(p, n, spec), wl, seed)
        ck = run(
            lambda p, n: UniversalReplica(
                p, n, spec, replay="checkpoint", checkpoint_interval=3
            ),
            wl, seed,
        )
        assert base[0] == ck[0]
        assert base[1] == ck[1]
        # FIFO changes delivery times, hence Lamport stamps, hence the
        # agreed linearization — so the GC variant is compared against the
        # plain construction on the *same* FIFO schedule.
        base_fifo = run(lambda p, n: UniversalReplica(p, n, spec), wl, seed, fifo=True)
        gc = run(
            lambda p, n: GarbageCollectedReplica(
                p, n, spec, gc_interval=5
            ),
            wl, seed, fifo=True,
        )
        assert base_fifo[0] == gc[0]
        assert base_fifo[1] == gc[1]
        ok, _, _ = update_consistent_convergence(gc[2], spec)
        assert ok


class TestInvertibleStrategies:
    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_counter_all_four_agree(self, seed):
        spec = CounterSpec()
        wl = counter_workload(3, 30, seed=seed)
        def replaying(replay):
            return lambda p, n: UniversalReplica(p, n, spec, replay=replay)

        base = run(replaying("naive"), wl, seed)
        ck = run(replaying("checkpoint"), wl, seed)
        un = run(replaying("undo"), wl, seed)
        fast = run(replaying("fold"), wl, seed)
        assert base[0] == ck[0] == un[0] == fast[0]
        assert base[1] == ck[1] == un[1] == fast[1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_log_undo_agrees(self, seed):
        spec = LogSpec()
        wl = collab_edit_workload(3, 25, seed=seed)
        base = run(lambda p, n: UniversalReplica(p, n, spec), wl, seed)
        un = run(lambda p, n: UniversalReplica(p, n, spec, replay="undo"), wl, seed)
        assert base[1] == un[1]
        # The converged document interleaves the authors' edit streams in
        # each author's own order (intention preservation).
        doc = base[1][0]
        for author in range(3):
            own = [e for e in doc if e.startswith(f"a{author}.")]
            assert own == sorted(own, key=lambda s: int(s.split(".")[1]))
