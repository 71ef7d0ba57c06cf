"""Message and space complexity accounting (Section VII-C).

The paper's complexity claims for Algorithm 1:

* "a unique message is broadcast for each update" — with point-to-point
  channels that is exactly ``n - 1`` sends per update and none per query;
* "each message only contains the information to identify the update and
  a timestamp composed of two integer values, that only grow
  logarithmically with the number of processes and the number of
  operations".

:func:`collect_message_stats` measures both on a finished cluster run;
:func:`payload_size_bits` gives a transport-layer encoding estimate for
arbitrary payloads (varint-style integers, UTF-8 strings), so the CRDT
baselines can be compared on the same scale (e.g. OR-Set delete payloads
carry observed tag sets and grow, Algorithm 1's stay flat).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adt import Query, Update
from repro.sim.cluster import Cluster


def payload_size_bits(payload: object) -> int:
    """Estimated wire size of a payload, in bits.

    Integers cost their bit length (plus one length nibble, amortized away
    here for simplicity); strings cost 8 bits per UTF-8 byte; containers
    cost the sum of their items.  ``None`` and booleans cost one bit.
    """
    if type(payload) is tuple:
        # Sync digests are tuples of many small ints: price those inline
        # rather than one call each.
        bits = 0
        for x in payload:
            if type(x) is int:
                bits += max(x.bit_length(), 1) + (x < 0)
            else:
                bits += payload_size_bits(x)
        return bits
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(payload.bit_length(), 1) + (1 if payload < 0 else 0)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return 8 * len(payload)
    if isinstance(payload, Update):
        return payload_size_bits(payload.name) + payload_size_bits(payload.args)
    if isinstance(payload, Query):
        return (
            payload_size_bits(payload.name)
            + payload_size_bits(payload.args)
            + payload_size_bits(payload.output)
        )
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(payload_size_bits(x) for x in payload)
    if isinstance(payload, dict):
        return sum(
            payload_size_bits(k) + payload_size_bits(v) for k, v in payload.items()
        )
    raise TypeError(f"cannot estimate wire size of {type(payload).__name__}")


@dataclass(frozen=True, slots=True)
class MessageStats:
    """Aggregated network accounting for one run."""

    processes: int
    updates: int
    queries: int
    messages_sent: int
    messages_delivered: int
    sends_per_update: float
    max_timestamp_bits: int

    def broadcast_optimal(self) -> bool:
        """Exactly one broadcast (n-1 point-to-point sends) per update."""
        if self.updates == 0:
            return self.messages_sent == 0
        return self.messages_sent == self.updates * (self.processes - 1)


def collect_message_stats(cluster: Cluster) -> MessageStats:
    """Measure the Section VII-C message-complexity claims on a run."""
    updates = cluster.trace.updates()
    queries = cluster.trace.queries()
    max_ts_bits = 0
    for record in cluster.trace:
        ts = record.meta.get("timestamp")
        if ts is not None:
            cl, pid = ts
            bits = max(cl, 1).bit_length() + max(pid, 1).bit_length()
            max_ts_bits = max(max_ts_bits, bits)
    n_updates = len(updates)
    registry = cluster.metrics
    sent = int(registry.total("repro_network_messages_sent_total"))
    return MessageStats(
        processes=cluster.n,
        updates=n_updates,
        queries=len(queries),
        messages_sent=sent,
        messages_delivered=int(
            registry.total("repro_network_messages_delivered_total")
        ),
        sends_per_update=sent / n_updates if n_updates else 0.0,
        max_timestamp_bits=max_ts_bits,
    )


def timestamp_growth(cluster: Cluster) -> list[tuple[int, int]]:
    """(operation index, timestamp bits) series — the logarithmic-growth
    claim, plottable directly."""
    series = []
    for i, record in enumerate(cluster.trace):
        ts = record.meta.get("timestamp")
        if ts is not None:
            cl, pid = ts
            series.append((i, max(cl, 1).bit_length() + max(pid, 1).bit_length()))
    return series
