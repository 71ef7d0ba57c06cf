"""Registry reads of the per-replica counters the tests assert on."""

from __future__ import annotations


def replica_count(replica, name: str) -> int:
    """``name``'s series for ``replica`` in the registry it is bound to
    (0 when the replica keeps no such count)."""
    return int(replica.metrics.value(name, pid=replica.pid))


def replayed(replica) -> int:
    return replica_count(replica, "repro_replica_replayed_updates_total")


def rollbacks(replica) -> int:
    return replica_count(replica, "repro_replica_rollbacks_total")


def rollback_replayed(replica) -> int:
    return replica_count(replica, "repro_replica_rollback_replayed_updates_total")


def collected(replica) -> int:
    return replica_count(replica, "repro_replica_collected_entries_total")
