"""Machine-readable run reports: one JSON document per simulated run.

Folds the cluster's trace, metrics registry and (optional) tracer into a
single ``repro-run-report-v1`` document answering the questions the paper's
Section VII-C raises empirically: did the run converge and when
(``analysis.convergence``), how stale were reads (``analysis.staleness``),
how many messages did agreement cost (``analysis.metrics``), and how much
replay work did queries amortize.  The schema is documented in
``docs/observability.md`` and enforced here by :func:`validate_report` —
hand-rolled, since the toolchain does not ship a JSON-Schema validator.

Not imported from ``repro.obs.__init__``: this module imports the cluster,
which itself imports :mod:`repro.obs.metrics` at load time, so pulling it
into the package root would create an import cycle.  Import it explicitly::

    from repro.obs.report import run_report
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from repro.analysis.convergence import (
    ConvergenceWatchdog,
    converged,
    divergence_degree,
    log_divergence,
)
from repro.analysis.metrics import collect_message_stats
from repro.analysis.staleness import staleness_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer
from repro.sim.cluster import Cluster

REPORT_FORMAT = "repro-run-report-v1"

JsonDict = dict[str, Any]


def run_report(
    cluster: Cluster,
    *,
    tracer: NullTracer | None = None,
    registry: MetricsRegistry | None = None,
    drive: bool = True,
) -> JsonDict:
    """Build the run-report document for a (finished) cluster run.

    With ``drive=True`` (default) any still-deliverable traffic is drained
    through :class:`~repro.analysis.convergence.ConvergenceWatchdog`, which
    also measures time-to-agreement; on an already-quiescent cluster that
    is a no-op.  ``drive=False`` snapshots the cluster untouched.
    ``tracer``/``registry`` default to the cluster's own.
    """
    tracer = tracer if tracer is not None else cluster.tracer
    registry = registry if registry is not None else cluster.metrics

    if drive:
        conv = asdict(ConvergenceWatchdog(cluster).watch())
    else:
        is_conv = converged(cluster)
        conv = {
            "converged": is_conv,
            "quiescent": cluster.quiescent(),
            "steps": 0,
            "time_to_agreement": cluster.now if is_conv else None,
            "final_divergence": log_divergence(cluster),
            "distinct_states": divergence_degree(cluster),
            "undelivered": cluster.network.pending_count(),
        }
    conv["final_divergence"] = {
        str(pid): lag for pid, lag in sorted(conv["final_divergence"].items())
    }

    try:
        stale: JsonDict | None = asdict(staleness_report(cluster.trace))
    except ValueError:
        # Replicas without witness metadata (track_witness=False) cannot
        # be scored for staleness; the section is null rather than absent.
        stale = None

    def counted(name: str, **labels: int) -> int:
        """A count the cluster's own instruments keep (0 if none does)."""
        return int(cluster.metrics.value(name, **labels))

    stats = collect_message_stats(cluster)
    messages = {
        "sent": stats.messages_sent,
        "delivered": stats.messages_delivered,
        "lost": counted("repro_network_messages_lost_total"),
        "duplicated": counted("repro_network_messages_duplicated_total"),
        "dropped_to_crashed": counted("repro_cluster_dropped_to_crashed_total"),
        "pending": cluster.network.pending_count(),
        "sends_per_update": stats.sends_per_update,
        "broadcast_optimal": stats.broadcast_optimal(),
        "max_timestamp_bits": stats.max_timestamp_bits,
    }

    replicas = []
    for pid in range(cluster.n):
        replicas.append(
            {
                "pid": pid,
                "crashed": pid in cluster.crashed,
                "replayed_updates": counted(
                    "repro_replica_replayed_updates_total", pid=pid
                ),
                "log_length": int(cluster.replicas[pid].log_length or 0),
                "rollbacks": counted("repro_replica_rollbacks_total", pid=pid),
                "collected": counted(
                    "repro_replica_collected_entries_total", pid=pid
                ),
            }
        )

    # Anti-entropy v2 accounting (all counters default to 0 when no sync
    # traffic — or no sync-capable replica — occurred in the run).
    sync = {
        "requests": int(registry.total("repro_sync_requests_total")),
        "request_bits": int(registry.total("repro_sync_request_bits_total")),
        "pages": int(registry.total("repro_sync_pages_sent_total")),
        "updates_shipped": int(
            registry.total("repro_sync_updates_shipped_total")
        ),
        "redundant_updates": int(
            registry.total("repro_sync_redundant_updates_total")
        ),
        "state_transfers": int(
            registry.total("repro_sync_state_transfers_total")
        ),
        "state_installs": int(
            registry.total("repro_sync_state_installs_total")
        ),
    }

    updates = len(cluster.trace.updates())
    queries = len(cluster.trace.queries())
    total_replayed = int(registry.total("repro_replica_replayed_updates_total"))
    replay = {
        "updates": updates,
        "queries": queries,
        "total_replayed": total_replayed,
        # Replay amplification: how many update-folds the run paid per
        # query (the naive construction pays the whole log each time).
        "replayed_per_query": total_replayed / queries if queries else 0.0,
    }

    return {
        "format": REPORT_FORMAT,
        "cluster": {
            "processes": cluster.n,
            "virtual_time": cluster.now,
            "alive": cluster.alive(),
            "crashed": sorted(cluster.crashed),
            "recoveries": counted("repro_cluster_recoveries_total"),
        },
        "convergence": conv,
        "staleness": stale,
        "messages": messages,
        "sync": sync,
        "replay": replay,
        "replicas": replicas,
        "trace": {
            "enabled": tracer.enabled,
            "records": len(tracer.records()),
            "events": tracer.counts(),
        },
        "metrics": registry.to_json(),
    }


def report_json(doc: JsonDict, *, indent: int | None = 2) -> str:
    return json.dumps(doc, indent=indent, sort_keys=True)


def write_report(path: str, doc: JsonDict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- schema validation ---------------------------------------------------------

#: Required dotted paths and their accepted types.  ``float`` accepts ints
#: too (JSON round-trips whole floats as ints); ``None`` in a tuple marks
#: a nullable field.
_REQUIRED: dict[str, tuple[Any, ...]] = {
    "format": (str,),
    "cluster": (dict,),
    "cluster.processes": (int,),
    "cluster.virtual_time": (float,),
    "cluster.alive": (list,),
    "cluster.crashed": (list,),
    "cluster.recoveries": (int,),
    "convergence": (dict,),
    "convergence.converged": (bool,),
    "convergence.quiescent": (bool,),
    "convergence.steps": (int,),
    "convergence.time_to_agreement": (float, None),
    "convergence.final_divergence": (dict,),
    "convergence.distinct_states": (int,),
    "convergence.undelivered": (int,),
    "staleness": (dict, None),
    "messages": (dict,),
    "messages.sent": (int,),
    "messages.delivered": (int,),
    "messages.lost": (int,),
    "messages.duplicated": (int,),
    "messages.dropped_to_crashed": (int,),
    "messages.pending": (int,),
    "messages.sends_per_update": (float,),
    "messages.broadcast_optimal": (bool,),
    "messages.max_timestamp_bits": (int,),
    "sync": (dict,),
    "sync.requests": (int,),
    "sync.request_bits": (int,),
    "sync.pages": (int,),
    "sync.updates_shipped": (int,),
    "sync.redundant_updates": (int,),
    "sync.state_transfers": (int,),
    "sync.state_installs": (int,),
    "replay": (dict,),
    "replay.updates": (int,),
    "replay.queries": (int,),
    "replay.total_replayed": (int,),
    "replay.replayed_per_query": (float,),
    "replicas": (list,),
    "trace": (dict,),
    "trace.enabled": (bool,),
    "trace.records": (int,),
    "trace.events": (dict,),
    "metrics": (dict,),
    "metrics.format": (str,),
    "metrics.metrics": (dict,),
}

_REPLICA_FIELDS: dict[str, tuple[Any, ...]] = {
    "pid": (int,),
    "crashed": (bool,),
    "replayed_updates": (int,),
    "log_length": (int,),
    "rollbacks": (int,),
    "collected": (int,),
}


def _type_ok(value: Any, kinds: tuple[Any, ...]) -> bool:
    for kind in kinds:
        if kind is None:
            if value is None:
                return True
        elif kind is bool:
            if isinstance(value, bool):
                return True
        elif kind is int:
            if isinstance(value, int) and not isinstance(value, bool):
                return True
        elif kind is float:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return True
        elif isinstance(value, kind):
            return True
    return False


def _lookup(doc: JsonDict, dotted: str) -> tuple[bool, Any]:
    node: Any = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def validate_report(doc: Any) -> list[str]:
    """Check a document against the run-report schema; return the errors
    (empty list = valid).  Deliberately structural, not semantic: value
    cross-checks live in the test suite."""
    if not isinstance(doc, dict):
        return [f"report must be a JSON object, got {type(doc).__name__}"]
    errors: list[str] = []
    if doc.get("format") != REPORT_FORMAT:
        errors.append(
            f"format must be {REPORT_FORMAT!r}, got {doc.get('format')!r}"
        )
    for dotted, kinds in _REQUIRED.items():
        present, value = _lookup(doc, dotted)
        if not present:
            errors.append(f"missing required field {dotted!r}")
        elif not _type_ok(value, kinds):
            names = "/".join("null" if k is None else k.__name__ for k in kinds)
            errors.append(
                f"field {dotted!r} must be {names}, got {type(value).__name__}"
            )
    for i, entry in enumerate(doc.get("replicas") or []):
        if not isinstance(entry, dict):
            errors.append(f"replicas[{i}] must be an object")
            continue
        for name, kinds in _REPLICA_FIELDS.items():
            if name not in entry:
                errors.append(f"replicas[{i}] missing field {name!r}")
            elif not _type_ok(entry[name], kinds):
                errors.append(f"replicas[{i}].{name} has the wrong type")
    return errors
