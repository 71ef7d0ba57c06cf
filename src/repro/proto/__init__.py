"""``repro.proto`` — the sans-io protocol core.

Everything the paper's replicas *are* — Algorithm 1's timestamped update
log, the anti-entropy v2 digest handshake, garbage collection and
crash-recovery — lives behind three wait-free hooks (``on_update``,
``on_query``, ``on_message``) that never block and never touch a socket.
This package makes that boundary a first-class, typed contract:

* :mod:`repro.proto.events` — what the outside world tells the protocol
  (:class:`UpdateSubmitted`, :class:`QuerySubmitted`,
  :class:`MessageReceived`, :class:`SyncTick`, :class:`CrashRecovered`,
  :class:`LinkEstablished`, :class:`LinkLost`);
* :mod:`repro.proto.effects` — what the protocol asks the outside world
  to do (:class:`Send`, :class:`Broadcast`, :class:`Persist`,
  :class:`Timer`, :class:`QueryAnswered`);
* :mod:`repro.proto.core` — :class:`ProtocolCore`, the state machine
  consuming events and emitting effects around one replica instance;
* :mod:`repro.proto.wire` — the pure value codec: JSON encoding for every
  payload shape the protocol ships, plus the durable replica image
  (``replica_snapshot`` / ``restore_replica``).

The package is **sans-io by construction and by lint**: uqlint rule
REP204 bans I/O, ``asyncio``, ``socket`` and wall-clock imports anywhere
under ``repro/proto``.  Two backends drive the same core:

* :class:`repro.sim.cluster.Cluster` — the deterministic discrete-event
  simulator, now a thin effect interpreter (every chaos/fuzz/persistence
  adversary exercises exactly this code);
* :mod:`repro.net` — real asyncio TCP peer links plus an HTTP front-end
  serving UQ-ADT objects to concurrent clients.

Because both backends interpret the *same* effects from the *same* core,
there is no semantic fork between "what we proved in the simulator" and
"what runs on the wire" — the differential test in
``tests/net/test_differential.py`` pins the two byte-for-byte.
"""

from repro.proto.core import ProtocolCore
from repro.proto.effects import Broadcast, Effect, Persist, QueryAnswered, Send, Timer
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
from repro.proto.wire import (
    decode_payload,
    decode_value,
    encode_payload,
    encode_value,
    replica_snapshot,
    restore_replica,
)

__all__ = [
    "ProtocolCore",
    "Event",
    "UpdateSubmitted",
    "QuerySubmitted",
    "LinkEstablished",
    "LinkLost",
    "MessageReceived",
    "SyncTick",
    "CrashRecovered",
    "Effect",
    "Send",
    "Broadcast",
    "Persist",
    "Timer",
    "QueryAnswered",
    "encode_value",
    "decode_value",
    "encode_payload",
    "decode_payload",
    "replica_snapshot",
    "restore_replica",
]
