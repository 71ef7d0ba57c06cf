"""Typed protocol effects — everything the core can ask a backend to do.

Effects are *descriptions*, not actions: the core returns them from
:meth:`repro.proto.core.ProtocolCore.handle` and a backend interprets
them — the simulator by scheduling virtual-time deliveries, the asyncio
transport by framing bytes onto TCP connections.  A backend is free to
ignore effects it models differently (the simulator ignores
:class:`Persist` because its "disk" is the live replica object; it
ignores :class:`Timer` because the experiment script owns time).

The hot delivery path reuses the module-level :data:`PERSIST_UPDATE` /
:data:`PERSIST_MESSAGE` singletons and shared tuples, so a quiescent
delivery allocates no effect objects at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union


@dataclass(frozen=True, slots=True)
class Send:
    """Transmit ``payload`` point-to-point to process ``dst``."""

    dst: int
    payload: Any


@dataclass(frozen=True, slots=True)
class Broadcast:
    """Transmit ``payload`` to every other process (Algorithm 1 line 6)."""

    payload: Any


@dataclass(frozen=True, slots=True)
class Persist:
    """The durable image changed; re-save it when convenient.

    ``reason`` says which transition dirtied the image (``"update"``,
    ``"message"``, ``"recover"``).  The effect is a *hint*, not a write
    barrier: backends may coalesce consecutive Persists (the asyncio
    node throttles journal flushes), and the paper's fsync model — the
    clock is write-ahead, the log tail may lag — is what the record
    order of a :func:`repro.proto.wire.replica_snapshot` image encodes.
    """

    reason: str


@dataclass(frozen=True, slots=True)
class Timer:
    """Ask the backend to schedule a future :class:`~repro.proto.events.SyncTick`.

    The core never knows wall-clock or virtual durations; it only says
    *that* another ``kind`` tick would help (e.g. after recovery, to pull
    stragglers a single rejoin round missed).  The backend chooses the
    delay — or ignores the request when it already ticks periodically.
    """

    kind: str = "sync"


@dataclass(frozen=True, slots=True)
class QueryAnswered:
    """The output of a :class:`~repro.proto.events.QuerySubmitted` event.

    Always the first effect of the batch answering the query — queries
    are wait-free local computations, so the answer can never be deferred
    behind network activity.
    """

    output: Any


Effect = Union[Send, Broadcast, Persist, Timer, QueryAnswered]

#: Shared singletons for the hot paths (zero-allocation deliveries).
PERSIST_UPDATE = Persist("update")
PERSIST_MESSAGE = Persist("message")
PERSIST_RECOVER = Persist("recover")

#: The whole effect batch of a plain in-order delivery, pre-built.
ONLY_PERSIST_MESSAGE: tuple[Effect, ...] = (PERSIST_MESSAGE,)
