"""The protocol state machine: events in, effects out, no I/O anywhere.

:class:`ProtocolCore` hosts one replica algorithm (any
:class:`~repro.sim.replica.Replica` implementation — Algorithm 1's
:class:`~repro.core.universal.UniversalReplica`, the checkpointed and
garbage-collected refinements, the CRDT baselines) and translates between
the replica's hook interface and the typed event/effect vocabulary of
:mod:`repro.proto.events` / :mod:`repro.proto.effects`.

The translation adds **zero semantics**: every payload a hook returns
becomes a :class:`~repro.proto.effects.Broadcast`, every ``send_to`` the
hook queued becomes a :class:`~repro.proto.effects.Send` (in queue
order), and the replica's durable-image codec is
:mod:`repro.proto.wire` — the same codec, byte for byte, under both
backends.  That is the refactor's core claim, and the sim↔net
differential test enforces it.

Wait-freedom is preserved structurally: every method here is a
synchronous local computation.  There is nothing to await — a core
cannot express "block until a peer answers" any more than a replica
could.

Hot-path note: :meth:`deliver` is called once per message by the
simulator's fused ``run()`` loop (millions of times per run).  The
common case — an in-order payload producing no relays and no directed
sends — returns a module-level shared tuple and allocates nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.core.sync import LINK_OPEN
from repro.proto import wire
from repro.proto.effects import (
    ONLY_PERSIST_MESSAGE,
    PERSIST_MESSAGE,
    PERSIST_RECOVER,
    PERSIST_UPDATE,
    Broadcast,
    Effect,
    QueryAnswered,
    Send,
    Timer,
)
from repro.proto.events import (
    CrashRecovered,
    Event,
    LinkEstablished,
    LinkLost,
    MessageReceived,
    QuerySubmitted,
    SyncTick,
    UpdateSubmitted,
)

if TYPE_CHECKING:  # pure typing only — proto never imports the sim at runtime
    from repro.core.adt import Update
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.replica import Replica


class ProtocolCore:
    """One process's protocol state machine around a wrapped replica.

    ``replica_factory(pid, n)`` builds the algorithm; the core keeps the
    factory so :class:`~repro.proto.events.CrashRecovered` can rebuild a
    fresh instance and restore it from the durable image — the exact
    crash-recovery dance the simulator performed inline before this
    package existed.

    Backends interact through :meth:`handle` (the uniform typed entry
    point) or through the per-event convenience methods (:meth:`submit`,
    :meth:`query`, :meth:`deliver`, :meth:`sync_tick`, :meth:`recover`,
    :meth:`link_established`, :meth:`link_lost`),
    which skip the event-object allocation on hot paths.  Both routes run
    identical code.
    """

    __slots__ = ("pid", "n", "replica", "_factory", "_registry")

    def __init__(
        self,
        pid: int,
        n: int,
        replica_factory: Callable[[int, int], "Replica"],
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self._factory = replica_factory
        self._registry = registry
        self.replica: "Replica" = replica_factory(pid, n)
        if registry is not None:
            self.replica.bind_metrics(registry)

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """(Re-)home the wrapped replica's instruments on ``registry`` and
        remember it for replicas rebuilt by :meth:`recover`."""
        self._registry = registry
        self.replica.bind_metrics(registry)

    # -- the uniform event entry point --------------------------------------------

    def handle(self, event: Event) -> tuple[Effect, ...]:
        """Consume one typed event; return the effect batch it causes.

        :class:`~repro.proto.events.QuerySubmitted` answers via a leading
        :class:`~repro.proto.effects.QueryAnswered` effect (queries are
        wait-free, so the answer is always in the same batch).
        """
        if isinstance(event, MessageReceived):
            return self.deliver(event.src, event.payload)
        if isinstance(event, UpdateSubmitted):
            return self.submit(event.update)
        if isinstance(event, QuerySubmitted):
            output, effects = self.query(event.name, event.args)
            return (QueryAnswered(output), *effects)
        if isinstance(event, SyncTick):
            return self.sync_tick(event.kind)
        if isinstance(event, CrashRecovered):
            return self.recover(event.snapshot)
        if isinstance(event, LinkEstablished):
            return self.link_established(event.peer)
        if isinstance(event, LinkLost):
            return self.link_lost(event.peer)
        raise TypeError(f"not a protocol event: {event!r}")

    # -- per-event methods (hot paths call these directly) ------------------------

    def submit(self, update: "Update") -> tuple[Effect, ...]:
        """A locally issued update: apply, then broadcast its payloads."""
        replica = self.replica
        effects: list[Effect] = [Broadcast(p) for p in replica.on_update(update)]
        self._drain(replica, effects)
        effects.append(PERSIST_UPDATE)
        return tuple(effects)

    def query(
        self, name: str, args: tuple[Hashable, ...] = ()
    ) -> tuple[Any, tuple[Effect, ...]]:
        """A locally issued query: ``(output, effects)``.

        Plain replicas produce no effects; request/reply baselines (the
        quorum object) queue directed sends even from queries, which come
        back here as :class:`~repro.proto.effects.Send`.
        """
        replica = self.replica
        output = replica.on_query(name, args)
        if not replica.outbox:
            return output, ()
        effects: list[Effect] = []
        self._drain(replica, effects)
        return output, tuple(effects)

    def deliver(self, src: int, payload: Any) -> tuple[Effect, ...]:
        """One payload delivered by the transport (already decoded)."""
        replica = self.replica
        extra = replica.on_message(src, payload)
        if not extra and not replica.outbox:
            return ONLY_PERSIST_MESSAGE
        effects: list[Effect] = [Broadcast(p) for p in extra or ()]
        self._drain(replica, effects)
        effects.append(PERSIST_MESSAGE)
        return tuple(effects)

    def sync_tick(self, kind: str = "sync") -> tuple[Effect, ...]:
        """A maintenance tick: anti-entropy digest or liveness heartbeat.

        Returns ``()`` when the wrapped replica does not speak the
        requested dialect — ticking any core is always safe, which is
        what lets backends run one periodic timer over heterogeneous
        replica types.
        """
        replica = self.replica
        if kind == "sync":
            sync = replica.sync_request
            if sync is None:
                return ()
            effects: list[Effect] = [Broadcast(sync())]
        elif kind == "heartbeat":
            heartbeat = replica.heartbeat
            if heartbeat is None:
                return ()
            effects = [Broadcast(heartbeat())]
        else:
            raise ValueError(f"unknown sync tick kind {kind!r}")
        self._drain(replica, effects)
        return tuple(effects)

    def link_established(self, peer: int) -> tuple[Effect, ...]:
        """A new connection from ``peer``: a new link epoch opens, and the
        sync request that opens its round goes to ``peer``.  ``()`` on a
        replica that keeps no completeness claims."""
        replica = self.replica
        hook = replica.link_established
        if hook is None:
            return ()
        effects: list[Effect] = [Send(peer, hook(peer))]
        self._drain(replica, effects)
        return tuple(effects)

    def link_lost(self, peer: int) -> tuple[Effect, ...]:
        """The connection from ``peer`` is gone: its epoch ends."""
        hook = self.replica.link_lost
        if hook is not None:
            hook(peer)
        return ()

    def recover(self, image: str | wire.JournalImage) -> tuple[Effect, ...]:
        """Rebuild the replica from its durable image and rejoin.

        ``image`` is what the backend's storage survived the crash with:
        the verified records the journal engine read off disk
        (:class:`~repro.proto.wire.JournalImage` — records in, replica
        out, no text in between) or an image text (the simulator's
        :meth:`snapshot`).  A fresh replica comes from the factory
        (re-homed on the bound registry), the image is restored through
        :func:`repro.proto.wire.restore_replica` (clock first — the
        write-ahead rule), and the rejoin effects are emitted: an
        anti-entropy broadcast for sync-capable replicas, any directed
        sends the restore hooks queued, a :class:`Persist` (the restored
        image is the new durable truth), and a :class:`Timer` asking the
        backend for a follow-up sync round.  Raises :class:`ValueError`
        — leaving the current replica in place — when the image is
        rejected.  Every link epoch of the rebuilt replica reopens: it
        holds only its image, so what a completed round delivered to the
        old one is gone, and the rejoin broadcast is the opening round of
        every link (DESIGN.md §11).
        """
        fresh = self._factory(self.pid, self.n)
        if self._registry is not None:
            fresh.bind_metrics(self._registry)
        wire.restore_replica(fresh, image)
        if fresh.link_epochs is not None:
            fresh.link_epochs[:] = [LINK_OPEN] * self.n
        self.replica = fresh
        effects: list[Effect] = []
        sync = fresh.sync_request
        if sync is not None:
            effects.append(Broadcast(sync()))
        self._drain(fresh, effects)
        effects.append(PERSIST_RECOVER)
        if sync is not None:
            effects.append(Timer("sync"))
        return tuple(effects)

    # -- durable image -------------------------------------------------------------

    def snapshot(self, *, fsync_point: int | None = None, version: int = 3) -> str:
        """The replica's current durable image (what a real deployment
        would have fsynced); ``fsync_point`` models a crash that beat the
        last log fsync.  ``version`` is a vestige — there is one format;
        the frozen perf ledger passes ``version=3``, anything else is
        rejected — to be dropped in the next ``benchmark`` PR."""
        if version != 3:
            raise ValueError(f"unknown replica image version {version!r}")
        return wire.replica_snapshot(self.replica, fsync_point=fsync_point)

    # -- introspection (read-only passthroughs) ------------------------------------

    @property
    def sync_capable(self) -> bool:
        """Does the wrapped replica speak the anti-entropy handshake?"""
        return self.replica.sync_request is not None

    @property
    def log_length(self) -> int | None:
        return self.replica.log_length

    def local_state(self) -> Any:
        return self.replica.local_state()

    def witness_meta(self) -> dict[str, Any]:
        return dict(self.replica.witness_meta())

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _drain(replica: "Replica", effects: list[Effect]) -> None:
        """Translate the replica's queued directed sends into effects."""
        outbox = replica.outbox
        if not outbox:
            return
        for dst, payload in outbox:
            effects.append(Broadcast(payload) if dst is None else Send(dst, payload))
        outbox.clear()
