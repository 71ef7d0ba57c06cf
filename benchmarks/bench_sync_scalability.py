"""SYNC — anti-entropy v2 digests keep sync requests O(n + gaps).

The v1 handshake shipped ``frozenset(known_uids)`` — every update id the
replica had ever seen — so one sync request cost O(total updates) bits
and grew without bound under Section VII-C's "old messages can be garbage
collected" regime.  The v2 digest (per-author completeness floors from
the ``heard`` vector + a small exception set) costs O(n_procs + gaps)
regardless of history length.

Series regenerated: sync-request payload bits vs operations issued, v1
(reconstructed from the issued-update ids — exactly what the known set
held at quiescence) against v2 (the live ``sync_request`` wire payload).
Shape asserted: v1 grows linearly across 100→800 ops while v2 stays flat,
and — via a traced repair round — every sync-resp page respects the
configured ``sync_page_size`` bound.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.analysis.metrics import payload_size_bits
from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.sync import SYNC_REQ
from repro.obs.tracer import SimTracer
from repro.sim import Cluster
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()
CHECKPOINTS = (100, 200, 400, 800)
PROCS = 3
PAGE_SIZE = 8


def _build_cluster(tracer=None):
    kwargs = {"tracer": tracer} if tracer is not None else {}
    return Cluster(
        PROCS,
        lambda p, n: GarbageCollectedReplica(
            p, n, SPEC, replay="checkpoint", gc_interval=16,
            sync_page_size=PAGE_SIZE,
        ),
        fifo=True,
        seed=7,
        **kwargs,
    )


def _heartbeat_round(c: Cluster) -> None:
    for pid in range(c.n):
        c.network.broadcast(pid, c.replicas[pid].heartbeat(), c.now)
    c.run()


def run_payload_series():
    """[(ops, v1 request bits, v2 request bits)] at each checkpoint."""
    c = _build_cluster()
    issued_uids: list[tuple[int, int]] = []
    series = []
    ops = 0
    for target in CHECKPOINTS:
        while ops < target:
            pid = ops % PROCS
            c.update(pid, S.insert(ops % 9) if ops % 2 else S.delete(ops % 9))
            # on_update stamps with the post-tick clock: record the uid the
            # v1 known set would have accumulated.
            issued_uids.append((c.replicas[pid].clock.value, pid))
            ops += 1
            if ops % 4 == 0:
                c.run()
        c.run()
        # Two heartbeat rounds advance every heard column past the issued
        # traffic so the GC floor (and hence the digest floor) catches up.
        _heartbeat_round(c)
        _heartbeat_round(c)
        for r in c.replicas:
            r.collect_garbage()
        # measured only: parse_sync_request no longer accepts this dialect
        v1_payload = (SYNC_REQ, 0, frozenset(issued_uids))
        v2_payload = c.replicas[0].sync_request()
        series.append(
            (target, payload_size_bits(v1_payload), payload_size_bits(v2_payload))
        )
    return c, series


def run_paged_repair():
    """A traced crash/recover repair round; returns (cluster, page sizes).

    Replica 2 is crashed (its inbound traffic dropped) while the others
    issue updates, then recovers from its complete durable log — so the
    recovery sync round must ship it everything it missed while down, in
    pages, each below the configured bound.
    """
    tracer = SimTracer()
    c = _build_cluster(tracer=tracer)
    for i in range(30):
        c.update(i % PROCS, S.insert(i % 9))
        if i % 4 == 0:
            c.run()
    c.run()
    _heartbeat_round(c)
    c.crash(2)
    for i in range(30):
        c.update(i % 2, S.insert((i + 3) % 9))
    c.run()
    c.recover(2)  # the whole log survived: a pure paged repair
    c.run()
    c.anti_entropy(rounds=3)
    pages = [
        int(rec.attrs["entries"])
        for rec in tracer.records()
        if rec.name == "sync.page"
    ]
    return c, pages


def test_sync_request_stays_flat(benchmark, save_result):
    c, series = benchmark(run_payload_series)

    rows = [[ops, v1, v2] for ops, v1, v2 in series]
    save_result(
        "sync_scalability",
        format_table(
            ["updates issued", "v1 request bits", "v2 request bits"], rows,
            title="anti-entropy request size: known-set (v1) vs digest (v2)",
        ),
    )

    first, last = series[0], series[-1]
    # v1 is linear in the history: 8x the ops, ~8x the bits.
    assert last[1] >= 4 * first[1], series
    # v2 tracks n_procs + stragglers, not the history: flat across the sweep.
    assert last[2] <= 2 * first[2], series
    assert last[2] < last[1] / 10, series


def test_sync_pages_bounded(benchmark, save_result):
    c, pages = benchmark(run_paged_repair)

    save_result(
        "sync_pages",
        format_table(
            ["page", "entries"], [[i, p] for i, p in enumerate(pages)],
            title=f"sync-resp pages during crash repair (bound {PAGE_SIZE})",
        ),
    )
    # The repair actually shipped pages, and every one respects the bound.
    assert pages, "crash repair shipped no sync pages"
    assert all(p <= PAGE_SIZE for p in pages), pages
    # And the repair worked: all replicas agree.
    from repro.core.adt import _canonical

    assert len({_canonical(s) for s in c.states().values()}) == 1
