"""Typed protocol events — everything a backend can tell the core.

An event is a fact about the outside world, not a request for behaviour:
the application submitted an operation, the transport delivered bytes, a
timer fired, the process restarted from its durable image.  The core
(:class:`repro.proto.core.ProtocolCore`) consumes events and answers with
:mod:`repro.proto.effects`; it never learns *how* the event happened
(simulated channel vs TCP socket, virtual vs wall-clock timer), which is
the whole sans-io contract.

All events are frozen — a backend may log, queue or replay them freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Union

from repro.core.adt import Update
from repro.proto.wire import JournalImage


@dataclass(frozen=True, slots=True)
class UpdateSubmitted:
    """The local application issued an update (Algorithm 1 line 4)."""

    update: Update


@dataclass(frozen=True, slots=True)
class QuerySubmitted:
    """The local application issued a query (Algorithm 1 line 12).

    The answer comes back as a :class:`~repro.proto.effects.QueryAnswered`
    effect — queries are wait-free, so the answer is always in the same
    effect batch, never deferred.
    """

    name: str
    args: tuple[Hashable, ...] = ()


@dataclass(frozen=True, slots=True)
class MessageReceived:
    """The transport delivered one peer payload (already decoded)."""

    src: int
    payload: Any


@dataclass(frozen=True, slots=True)
class SyncTick:
    """A periodic maintenance timer fired.

    ``kind="sync"`` asks the core to start an anti-entropy round (a
    digest broadcast peers answer with missing updates); ``"heartbeat"``
    asks for a clock-only liveness beacon (garbage-collected replicas use
    it to advance the stability frontier).  Cores whose replica does not
    speak the requested dialect emit no effects — ticking is always safe.
    """

    kind: str = "sync"


@dataclass(frozen=True, slots=True)
class CrashRecovered:
    """The process restarted and its durable image was read back.

    ``snapshot`` is the v3 journal image the backend's storage survived
    the crash with (a :func:`repro.proto.wire.replica_snapshot` text, or
    the verified :class:`~repro.proto.wire.JournalImage` that
    :mod:`repro.storage` read off disk); ``fsync_point`` is
    already baked into that image by whoever took it.  The core rebuilds its
    replica from scratch, restores the image, and emits the rejoin
    effects (an anti-entropy request plus whatever the restore hooks
    queued).
    """

    snapshot: str | JournalImage
    #: informational only (carried into traces); the truncation itself
    #: happened when the snapshot was taken.
    fsync_point: int | None = field(default=None)


@dataclass(frozen=True, slots=True)
class LinkEstablished:
    """A new connection from ``peer`` came up (the net node: its ``HELLO``
    arrived; the simulator: a recovery, a partition heal or a dropped
    frame restarted the channel).  A new link epoch opens: the core asks
    ``peer`` for a sync round, whose ``SYNC_DONE`` completes the epoch
    (DESIGN.md §11)."""

    peer: int


@dataclass(frozen=True, slots=True)
class LinkLost:
    """The connection from ``peer`` is gone, or lost a frame: its epoch
    ends, and live frames stop advancing ``heard[peer]`` until a new
    epoch completes."""

    peer: int


Event = Union[
    UpdateSubmitted, QuerySubmitted, MessageReceived, SyncTick, CrashRecovered,
    LinkEstablished, LinkLost,
]
#: the inputs every backend must emit (uqlint EFX405): a backend that
#: never tells the core about its links leaves completeness unsound.
LinkChange = Union[LinkEstablished, LinkLost]
