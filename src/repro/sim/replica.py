"""The replica (process) interface — wait-freedom as an API contract.

A replica is the per-process half of a replicated object implementation.
The runtime calls exactly three hooks:

* :meth:`Replica.on_update` — the application issued an update locally.
  Returns the payloads to broadcast (Algorithm 1 broadcasts exactly one).
* :meth:`Replica.on_query` — the application issued a query locally.
  Returns the output, computed from local state only.
* :meth:`Replica.on_message` — the network delivered a payload.  May
  return further payloads to broadcast (none of the paper's algorithms
  need this, but e.g. anti-entropy protocols would).

None of the hooks can wait: there is no blocking receive in the interface,
so every implementation expressible here completes operations "based
solely on the local knowledge of the process" — the wait-free system model
of Section VII-A.  Crash failures are enforced by the runtime (a crashed
replica's hooks are never called again).

Replicas additionally expose introspection used by the analysis layer:
:meth:`Replica.local_state` (the value a read-all query would see) and
:meth:`Replica.witness_meta` (per-operation metadata for SUC witness
reconstruction — see Proposition 4).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from repro.core.adt import Update
from repro.obs.metrics import MetricsRegistry


class Replica:
    """Base class for per-process replica algorithms.

    The class (and the hot replica implementations built on it) declares
    ``__slots__``: a simulation holds one replica per process but the
    replicas hold millions of stamped log entries, and keeping the
    per-instance dict off the core classes keeps attribute access on the
    replay path one pointer chase shorter.  Experimental subclasses that
    omit ``__slots__`` simply get a ``__dict__`` back — nothing breaks.
    """

    __slots__ = ("pid", "n", "outbox", "metrics")

    #: the optional dialects a runtime may drive, None where a replica
    #: does not speak them: ``sync_request()`` returns the anti-entropy
    #: pull payload to broadcast, ``heartbeat()`` a clock-only liveness
    #: payload.  Replicas that speak one define it as a method.
    sync_request: Callable[[], Any] | None = None
    heartbeat: Callable[[], Any] | None = None
    #: entries in the replica's update log, None for log-free replicas.
    log_length: int | None = None

    def __init__(self, pid: int, n: int) -> None:
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for {n} processes")
        self.pid = pid
        self.n = n
        #: directed-send buffer: hooks may queue ``(dst, payload)`` pairs
        #: (``dst=None`` broadcasts) via :meth:`send_to`; the runtime
        #: drains it after every hook call.  Request/reply protocols (the
        #: quorum baseline) need point-to-point replies, which the plain
        #: broadcast-only return channel cannot express.
        self.outbox: list[tuple[int | None, Any]] = []
        #: observability home: a private registry at construction so a
        #: stand-alone replica accounts for itself; the cluster re-binds
        #: every replica onto the shared per-run registry.
        self.metrics = MetricsRegistry()
        self.bind_metrics(self.metrics)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """(Re-)home this replica's instruments on ``registry``.

        Called once during construction with a private registry, and again
        by :class:`~repro.sim.cluster.Cluster` to move the replica onto
        the run-wide registry.  Overrides must create their instruments
        here (idempotent registration makes re-binding safe) and may rely
        only on ``self.pid`` — the hook runs before subclass ``__init__``
        bodies.
        """
        self.metrics = registry

    def send_to(self, dst: int | None, payload: Any) -> None:
        """Queue a point-to-point send (or a broadcast when ``dst`` is
        ``None``) for the runtime to pick up after the current hook."""
        self.outbox.append((dst, payload))

    # -- hooks ------------------------------------------------------------------

    def on_update(self, update: Update) -> Sequence[Any]:
        """Apply a locally issued update; return payloads to broadcast."""
        raise NotImplementedError

    def on_query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        """Answer a locally issued query from local state only."""
        raise NotImplementedError

    def on_message(self, src: int, payload: Any) -> Sequence[Any]:
        """Incorporate a delivered payload; optionally broadcast more."""
        raise NotImplementedError

    # -- introspection ------------------------------------------------------------

    def local_state(self) -> Any:
        """The replica's current converged-candidate state (for analysis)."""
        raise NotImplementedError

    def witness_meta(self) -> dict[str, Any]:
        """Metadata for the most recent operation (timestamp, visibility).

        Implementations that construct SUC witnesses (Algorithm 1 and its
        optimized variants) override this; the default reports nothing.
        """
        return {}
