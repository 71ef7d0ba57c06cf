"""ABL-GOSSIP — ablation: op-based broadcast vs state-based gossip.

The paper's universal construction broadcasts one small message per
update (operation-based).  The other classic replication style from its
[Shapiro et al.] citation is state-based: updates stay local and replicas
periodically gossip their whole lattice payload.

Series regenerated (grow-only set, 3 processes, 120 inserts):

* messages sent and total bytes on the wire, per gossip period;
* staleness: how many of the other replicas' elements the average read
  misses while running.

Shape asserted: the op-based construction sends more (but tiny) messages
and is never stale once delivered; state-based sends fewer, much larger
messages, with staleness growing with the gossip period — the classic
trade-off curve.
"""

from __future__ import annotations

from repro.analysis import format_table, payload_size_bits
from repro.core.universal import UniversalReplica
from repro.crdt.state_based import GSetLattice, StateBasedReplica, gossip_round
from repro.sim import Cluster
from repro.sim.network import FixedLatency
from repro.specs import GSetSpec
from repro.specs import gset as G

N = 3
INSERTS = 120
PERIODS = (5, 20, 60)  # updates between gossip rounds


def measure_bits(cluster) -> list[int]:
    bits = []
    orig_send = cluster.network.send

    def send(src, dst, payload, now):
        bits.append(payload_size_bits(payload))
        return orig_send(src, dst, payload, now)

    cluster.network.send = send
    return bits


def run_op_based():
    spec = GSetSpec()
    c = Cluster(N, lambda p, n: UniversalReplica(p, n, spec),
                latency=FixedLatency(1.0))
    bits = measure_bits(c)
    staleness = []
    for i in range(INSERTS):
        c.update(i % N, G.insert(i))
        staleness.append(_staleness(c))
        c.run_until(c.now + 0.5)
    c.run()
    return c, bits, staleness


def run_state_based(period: int):
    c = Cluster(N, lambda p, n: StateBasedReplica(p, n, GSetLattice()),
                latency=FixedLatency(1.0))
    bits = measure_bits(c)
    staleness = []
    for i in range(INSERTS):
        c.update(i % N, G.insert(i))
        staleness.append(_staleness(c))
        if (i + 1) % period == 0:
            gossip_round(c)
        c.run_until(c.now + 0.5)
    gossip_round(c)
    c.run()
    return c, bits, staleness


def _staleness(cluster) -> int:
    """Elements known somewhere but missing from some replica's view."""
    views = [frozenset(cluster.replicas[p].local_state()) for p in range(N)]
    union = frozenset().union(*views)
    return sum(len(union - v) for v in views)


def test_gossip_tradeoff(benchmark, save_result):
    c_op, bits_op, stale_op = benchmark(run_op_based)

    rows = [[
        "op-based (1 bcast/update)", len(bits_op), sum(bits_op) // 8,
        f"{sum(stale_op) / len(stale_op):.1f}",
    ]]
    sb = {}
    for period in PERIODS:
        c_sb, bits_sb, stale_sb = run_state_based(period)
        sb[period] = (bits_sb, stale_sb)
        rows.append([
            f"state-based, gossip every {period}", len(bits_sb),
            sum(bits_sb) // 8, f"{sum(stale_sb) / len(stale_sb):.1f}",
        ])
        # Convergence at the end regardless of cadence.
        views = {frozenset(c_sb.replicas[p].local_state()) for p in range(N)}
        assert len(views) == 1

    save_result(
        "ablation_gossip",
        format_table(
            ["system", "messages", "total bytes", "avg staleness"],
            rows,
            title=f"op-based vs state-based replication ({INSERTS} inserts, n={N})",
        ),
    )

    # Shapes: fewer messages for sparse gossip…
    assert len(sb[60][0]) < len(sb[5][0]) < len(bits_op) + 1
    # …but more staleness…
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(sb[60][1]) > mean(sb[5][1]) > mean(stale_op)
    # …and much bigger payloads per message (full state vs one op).
    assert max(sb[60][0]) > max(bits_op) * 4
