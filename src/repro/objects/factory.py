"""One-call construction of replicated objects.

``make_replicated(spec, n, strategy=...)`` builds a cluster of ``n``
replicas of ``spec`` and returns it with typed handles.  Strategies map to
the paper's implementations and optimizations:

===============  ==========================================  =======
strategy         replica                                     section
===============  ==========================================  =======
``universal``    ``UniversalReplica`` (naive replay, or the  Alg. 1
                 arrival-order fold on commuting updates,
                 Section VII-C's apply-on-receipt path)
``checkpoint``   ``UniversalReplica(replay="checkpoint")``   VII-C
``undo``         ``UniversalReplica(replay="undo")``         VII-C
``gc``           ``GarbageCollectedReplica``                 VII-C
``fifo``         ``FifoApplyReplica``                        Sec. IV
``causal``       ``CausalApplyReplica``                      Sec. IV
===============  ==========================================  =======

(The ``fifo`` and ``causal`` strategies are baselines: pipelined/causally
consistent but not convergent — see Proposition 1.)  ``replay="fold"``
forces the fold and refuses a spec whose updates do not commute.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.core.adt import UQADT
from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.objects.causal import CausalApplyReplica
from repro.objects.handles import (
    CounterHandle,
    GraphHandle,
    LogHandle,
    MapHandle,
    ObjectHandle,
    QueueHandle,
    RegisterHandle,
    SetHandle,
    StackHandle,
)
from repro.objects.pipelined import FifoApplyReplica
from repro.sim.cluster import Cluster
from repro.sim.network import LatencyModel

STRATEGIES: dict[str, Callable[..., Any]] = {
    "universal": UniversalReplica,
    "checkpoint": partial(UniversalReplica, replay="checkpoint"),
    "gc": GarbageCollectedReplica,
    "undo": partial(UniversalReplica, replay="undo"),
    "fifo": FifoApplyReplica,
    "causal": CausalApplyReplica,
}

#: spec name -> handle class, for the typed-handle convenience.
_HANDLES: dict[str, type[ObjectHandle]] = {
    "set": SetHandle,
    "g-set": SetHandle,
    "map": MapHandle,
    "register": RegisterHandle,
    "counter": CounterHandle,
    "queue": QueueHandle,
    "stack": StackHandle,
    "log": LogHandle,
    "graph": GraphHandle,
}


def make_replicated(
    spec: UQADT,
    n: int,
    *,
    strategy: str = "universal",
    latency: LatencyModel | None = None,
    seed: int = 0,
    fifo: bool | None = None,
    handle_cls: type[ObjectHandle] | None = None,
    **replica_kwargs: Any,
) -> tuple[Cluster, list[ObjectHandle]]:
    """Build a replicated ``spec`` over ``n`` simulated processes.

    ``fifo`` defaults to whatever the strategy needs (FIFO channels for
    the pipelined baseline and the GC variant; plain channels otherwise).
    Extra keyword arguments go to the replica constructor (e.g.
    ``checkpoint_interval=32``).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {sorted(STRATEGIES)}")
    replica_cls = STRATEGIES[strategy]
    if fifo is None:
        fifo = strategy in ("fifo", "gc")

    def factory(pid: int, total: int):
        return replica_cls(pid, total, spec, **replica_kwargs)

    cluster = Cluster(n, factory, latency=latency, seed=seed, fifo=fifo)
    cls = handle_cls if handle_cls is not None else _HANDLES.get(spec.name, ObjectHandle)
    handles = [cls(cluster, pid) for pid in range(n)]
    return cluster, handles


def make_memory(
    n: int,
    *,
    initial: Any = None,
    latency: LatencyModel | None = None,
    seed: int = 0,
) -> tuple[Cluster, list["MemoryHandle"]]:
    """Build the Algorithm 2 shared memory over ``n`` processes.

    Algorithm 2 is object-specific (it *is* the optimization), so it does
    not go through the generic strategy table.
    """
    from repro.core.memory import MemoryReplica
    from repro.objects.handles import MemoryHandle

    cluster = Cluster(
        n, lambda pid, total: MemoryReplica(pid, total, initial=initial),
        latency=latency, seed=seed,
    )
    return cluster, [MemoryHandle(cluster, pid) for pid in range(n)]
