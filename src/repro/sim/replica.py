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
reconstruction — see Proposition 4).  A query's visibility set in that
metadata is a :class:`KnownIds` view.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import islice
from typing import Any, Callable, Hashable, Iterator, Sequence

from repro.core.adt import Update
from repro.obs.metrics import MetricsRegistry


class KnownIds(Set):
    """The update ids a query saw: a read-only set view of ``ids[:n]``.

    A replica's known ids only grow between collections, so what each
    query saw is a prefix of one append-only arrival list: capturing it
    is two references, not a copy of the log.  The owner must never
    mutate ``ids`` in place except by appending — a collection *rebinds*
    its list instead — so a view reads the same set forever.  Iteration
    walks the prefix; membership freezes it once (cached)."""

    __slots__ = ("_ids", "_n", "_frozen")

    def __init__(self, ids: list, n: int) -> None:
        self._ids = ids
        self._n = n
        self._frozen: frozenset | None = None

    @classmethod
    def whole(cls, ids: list, last: "KnownIds | None") -> "KnownIds":
        """The view of all of ``ids`` — ``last`` itself when it already is
        one, so identical captures at quiescence share one object."""
        if last is not None and last._ids is ids and last._n == len(ids):
            return last
        return cls(ids, len(ids))

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator:
        return islice(self._ids, self._n)

    def __contains__(self, uid: object) -> bool:
        return uid in self._materialise()

    def __hash__(self) -> int:
        return hash(self._materialise())  # equal to the equal frozenset's

    def __repr__(self) -> str:
        return f"KnownIds({sorted(self)!r})"

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)  # the Set operators' results

    def _materialise(self) -> frozenset:
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(islice(self._ids, self._n))
        return frozen


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
    #: the link-epoch dialect, None where a replica keeps no completeness
    #: claims: ``link_established(peer)`` opens a new epoch on a new
    #: connection from ``peer`` and returns the sync request to send it,
    #: ``link_lost(peer)`` ends the epoch; ``link_epochs`` reads them.
    link_established: Callable[[int], Any] | None = None
    link_lost: Callable[[int], None] | None = None
    link_epochs: list[str] | None = None
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
