"""FLT-REC — fault recovery: crash→recover→converge under adversarial channels.

Section VII-A assumes crash-stop processes over reliable channels; the
broadcast is *best-effort*, so a crash mid-broadcast (or a lossy channel)
breaks eventual delivery and with it convergence.  This bench regenerates
the table behind that claim and its repair: for each network model
(reliable / lossy / duplicating) and each relay setting, a replica is
crashed mid-broadcast, recovered from its durable log, and the network
healed — the convergence watchdog then reports whether (and when) the
cluster re-agreed.

Shape asserted: with ``relay=True`` (uniform reliable broadcast) plus
anti-entropy every scenario converges; with ``relay=False`` the lossy
scenario demonstrably does not.
"""

from __future__ import annotations

from repro.analysis import ConvergenceWatchdog, format_table
from repro.core.universal import UniversalReplica
from repro.sim import Cluster, DuplicatingNetwork, LossyNetwork, Network
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()
N = 4
OPS = 24
SEED = 2

SCENARIOS = [
    ("reliable", Network, {}),
    ("lossy", LossyNetwork, {"drop_probability": 0.2}),
    ("duplicating", DuplicatingNetwork, {"duplicate_probability": 0.3}),
]


def run_scenario(network_cls, network_kwargs, *, relay):
    c = Cluster(
        N,
        lambda p, n: UniversalReplica(p, n, SPEC, relay=relay),
        seed=SEED, network_cls=network_cls, network_kwargs=network_kwargs,
    )
    for i in range(OPS // 2):
        c.update(i % N, S.insert(i))
    c.partition([[0, 1], [2, 3]])
    c.update(0, S.insert(100))           # parked toward the far side
    c.crash(0, drop_outgoing=True)       # mid-broadcast crash, copies lost
    for i in range(OPS // 2, OPS):
        c.update(i % N if i % N != 0 else 1, S.insert(i))
    c.run()
    c.recover(0)                         # rejoin from the durable log
    c.heal()
    report = ConvergenceWatchdog(c).watch()
    if relay and report.flagged:
        # The relay configuration also gets the anti-entropy repair pass —
        # together they model the uniform-reliable-broadcast upgrade.  The
        # baseline (relay=False) is left as the paper's best-effort
        # broadcast, so the table shows what the assumption buys.
        c.anti_entropy(rounds=8)
        report = ConvergenceWatchdog(c).watch()
    return c, report


def full_grid():
    rows = []
    for name, cls, kwargs in SCENARIOS:
        for relay in (False, True):
            _, report = run_scenario(cls, kwargs, relay=relay)
            rows.append((name, relay, report))
    return rows


def test_crash_recovery_convergence(benchmark, save_result):
    rows = benchmark(full_grid)

    table = [
        [name, "on" if relay else "off",
         "yes" if r.converged else "NO",
         f"{r.time_to_agreement:.2f}" if r.time_to_agreement is not None else "-",
         r.steps, max(r.final_divergence.values(), default=0)]
        for name, relay, r in rows
    ]
    save_result(
        "fault_recovery",
        format_table(
            ["network", "relay", "converged", "t_agree", "deliveries",
             "max log divergence"],
            table,
            title="crash→recover→converge under adversarial channels "
                  f"(n={N}, {OPS} updates, seed={SEED})",
        ),
    )

    by_key = {(name, relay): r for name, relay, r in rows}
    # With relay + anti-entropy, every channel model re-converges after
    # the crash/recover cycle — the acceptance shape.
    for name, _, _ in SCENARIOS:
        r = by_key[(name, True)]
        assert r.converged and r.quiescent, (name, r.summary())
        assert max(r.final_divergence.values(), default=0) == 0
    # Best-effort broadcast over a lossy channel does not: the paper's
    # reliable-channel assumption is load-bearing.
    lossy_off = by_key[("lossy", False)]
    assert not lossy_off.converged, lossy_off.summary()
    assert max(lossy_off.final_divergence.values()) > 0
