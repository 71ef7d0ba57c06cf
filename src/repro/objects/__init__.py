"""Ready-to-use replicated objects and baseline implementations.

* :mod:`repro.objects.handles` — typed per-process handles (``SetHandle``,
  ``MapHandle``, ...) wrapping a cluster + replica pair with the natural
  object API (``insert``, ``put``, ``read`` ...).
* :mod:`repro.objects.factory` — one-call construction of a replicated
  object over any spec and any implementation strategy (naive Algorithm 1,
  checkpointed, undo, stable-prefix GC, Algorithm 2 memory).
* :mod:`repro.objects.pipelined` — the FIFO apply-on-receipt baseline:
  pipelined consistent, *not* convergent (Fig. 2's behaviour).
* :mod:`repro.objects.causal` — causal-order apply baseline (vector-clock
  causal broadcast): causally consistent, *not* convergent — the other
  half of Proposition 1's impossibility.
"""

from repro.objects.factory import make_memory, make_replicated, STRATEGIES
from repro.objects.handles import (
    CounterHandle,
    GraphHandle,
    LogHandle,
    MapHandle,
    MemoryHandle,
    QueueHandle,
    RegisterHandle,
    SetHandle,
    StackHandle,
)
from repro.objects.pipelined import FifoApplyReplica
from repro.objects.causal import CausalApplyReplica
from repro.objects.quorum import ABDClient, ABDReplica, Unavailable

__all__ = [
    "make_replicated",
    "make_memory",
    "STRATEGIES",
    "SetHandle",
    "GraphHandle",
    "MapHandle",
    "RegisterHandle",
    "MemoryHandle",
    "CounterHandle",
    "QueueHandle",
    "StackHandle",
    "LogHandle",
    "FifoApplyReplica",
    "CausalApplyReplica",
    "ABDReplica",
    "ABDClient",
    "Unavailable",
]
