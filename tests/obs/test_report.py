"""Run reports: cross-checked against the cluster and trace they came
from, schema-validated, and deterministic per seed."""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.convergence import converged
from repro.analysis.metrics import collect_message_stats
from repro.analysis.staleness import staleness_report
from repro.obs.report import (
    NET_REPORT_FORMAT,
    REPORT_FORMAT,
    report_json,
    run_report,
    validate_net_report,
    validate_report,
    write_report,
)
from repro.obs.scenario import chaos_scenario
from repro.obs.tracer import to_chrome_trace
from tests.counts import replayed


@pytest.fixture(scope="module")
def chaos():
    """One finished chaos run, its report, and a snapshot of the directly
    computed values — captured immediately, because merely *reading* a
    replica's state (``local_state`` → replay) moves the replay counters."""
    cluster = chaos_scenario(seed=0)
    doc = run_report(cluster)
    snapshot = {
        "replayed": [replayed(r) for r in cluster.replicas],
        "log_lengths": [r.log_length for r in cluster.replicas],
        "metrics_json": cluster.metrics.to_json(),
    }
    return cluster, doc, snapshot


class TestReportCrossCheck:
    """The acceptance criterion: every reported number must match the
    value computed directly from the cluster/trace/registry."""

    def test_converges_and_validates(self, chaos):
        cluster, doc, snap = chaos
        assert doc["format"] == REPORT_FORMAT
        assert doc["convergence"]["converged"] is True
        assert converged(cluster)
        assert validate_report(doc) == []

    def test_cluster_section(self, chaos):
        cluster, doc, snap = chaos
        assert doc["cluster"]["processes"] == cluster.n
        assert doc["cluster"]["virtual_time"] == cluster.now
        assert doc["cluster"]["alive"] == cluster.alive()
        assert doc["cluster"]["crashed"] == sorted(cluster.crashed)
        assert doc["cluster"]["recoveries"] == cluster.metrics.value("repro_cluster_recoveries_total") == 1

    def test_message_counts_match_network(self, chaos):
        cluster, doc, snap = chaos
        msgs = doc["messages"]
        assert msgs["sent"] == cluster.metrics.value("repro_network_messages_sent_total")
        assert msgs["delivered"] == cluster.metrics.value("repro_network_messages_delivered_total")
        assert msgs["lost"] == cluster.metrics.value("repro_network_messages_lost_total")
        assert msgs["dropped_to_crashed"] == cluster.metrics.value("repro_cluster_dropped_to_crashed_total")
        assert msgs["pending"] == 0
        stats = collect_message_stats(cluster)
        assert msgs["sends_per_update"] == stats.sends_per_update
        assert msgs["max_timestamp_bits"] == stats.max_timestamp_bits

    def test_replay_totals_match_registry_and_trace(self, chaos):
        cluster, doc, snap = chaos
        replay = doc["replay"]
        assert replay["updates"] == len(cluster.trace.updates())
        assert replay["queries"] == len(cluster.trace.queries())
        direct = sum(snap["replayed"])
        assert replay["total_replayed"] == direct
        assert replay["replayed_per_query"] == direct / replay["queries"]
        # Each op.query event carries its replay delta; the deltas are
        # non-overlapping slices of the counter, so they sum to at most the
        # registry total (replays outside a query, e.g. during restore,
        # count toward the total but belong to no query event).
        traced = sum(
            r.attrs["replayed"]
            for r in cluster.tracer.iter_records("op.query")
        )
        assert 0 < traced <= direct

    def test_staleness_matches_direct_computation(self, chaos):
        cluster, doc, snap = chaos
        direct = staleness_report(cluster.trace)
        assert doc["staleness"]["queries"] == direct.queries
        assert doc["staleness"]["stale_queries"] == direct.stale_queries
        assert doc["staleness"]["max_version_lag"] == direct.max_version_lag

    def test_trace_section_matches_tracer(self, chaos):
        cluster, doc, snap = chaos
        assert doc["trace"]["enabled"] is True
        assert doc["trace"]["records"] == len(cluster.tracer.records())
        assert doc["trace"]["events"] == cluster.tracer.counts()
        counts = doc["trace"]["events"]
        assert counts["message.send"] == doc["messages"]["sent"]
        assert counts.get("message.lost", 0) == doc["messages"]["lost"]
        assert counts["replica.crash"] == 1
        assert counts["replica.recover"] == 1
        assert counts["op.update"] == doc["replay"]["updates"]
        assert counts["op.query"] == doc["replay"]["queries"]

    def test_replica_entries(self, chaos):
        cluster, doc, snap = chaos
        assert len(doc["replicas"]) == cluster.n
        for entry in doc["replicas"]:
            assert entry["crashed"] is False
            assert entry["replayed_updates"] == snap["replayed"][entry["pid"]]
            assert entry["log_length"] == snap["log_lengths"][entry["pid"]]

    def test_metrics_section_is_full_registry_dump(self, chaos):
        _cluster, doc, snap = chaos
        assert doc["metrics"] == snap["metrics_json"]

    def test_perfetto_export_loads(self, chaos):
        cluster, _, _snap = chaos
        trace = to_chrome_trace(cluster.tracer)
        events = trace["traceEvents"]
        assert events, "chaos run must produce trace events"
        # Serializes as JSON (what Perfetto actually parses); tuple attrs
        # come back as lists, so compare the event skeleton, not attrs.
        loaded = json.loads(json.dumps(trace))
        assert [e["name"] for e in loaded["traceEvents"]] == [
            e["name"] for e in events
        ]
        names = {e["name"] for e in events}
        for expected in ("message.send", "op.update", "op.query",
                         "replica.crash", "replica.recover",
                         "anti_entropy.round", "process_name"):
            assert expected in names


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = report_json(run_report(chaos_scenario(seed=3, ops=20)))
        b = report_json(run_report(chaos_scenario(seed=3, ops=20)))
        assert a == b

    def test_different_seed_different_run(self):
        a = run_report(chaos_scenario(seed=1, ops=20))
        b = run_report(chaos_scenario(seed=2, ops=20))
        assert a["messages"] != b["messages"]


class TestUntracedReport:
    def test_report_without_tracer_still_complete(self):
        from repro.obs.tracer import NULL_TRACER

        cluster = chaos_scenario(seed=0, ops=15, tracer=NULL_TRACER)
        doc = run_report(cluster)
        assert validate_report(doc) == []
        assert doc["trace"] == {"enabled": False, "records": 0, "events": {}}
        assert doc["messages"]["sent"] == cluster.metrics.value("repro_network_messages_sent_total")


class TestValidator:
    def test_rejects_non_dict(self):
        assert validate_report([]) == ["report must be a JSON object, got list"]

    def test_flags_wrong_format(self, chaos):
        _, doc, _snap = chaos
        bad = copy.deepcopy(doc)
        bad["format"] = "bogus"
        assert any("format" in e for e in validate_report(bad))

    def test_flags_missing_and_mistyped_fields(self, chaos):
        _, doc, _snap = chaos
        bad = copy.deepcopy(doc)
        del bad["messages"]["sent"]
        bad["convergence"]["converged"] = "yes"
        errors = validate_report(bad)
        assert any("messages.sent" in e for e in errors)
        assert any("convergence.converged" in e for e in errors)

    def test_flags_broken_replica_entry(self, chaos):
        _, doc, _snap = chaos
        bad = copy.deepcopy(doc)
        bad["replicas"][0] = {"pid": "zero"}
        errors = validate_report(bad)
        assert any("replicas[0].pid" in e for e in errors)
        assert any("missing field 'crashed'" in e for e in errors)

    def test_nullable_fields_accept_null(self, chaos):
        _, doc, _snap = chaos
        ok = copy.deepcopy(doc)
        ok["staleness"] = None
        ok["convergence"]["time_to_agreement"] = None
        assert validate_report(ok) == []

    def test_survives_json_round_trip(self, chaos, tmp_path):
        _, doc, _snap = chaos
        path = tmp_path / "report.json"
        write_report(str(path), doc)
        loaded = json.loads(path.read_text())
        assert validate_report(loaded) == []
        assert loaded["messages"] == doc["messages"]


def minimal_net_report() -> dict:
    """The smallest document the net-report schema accepts."""
    return {
        "format": NET_REPORT_FORMAT,
        "kind": "soak",
        "config": {"users": 10, "replicas": 3,
                   "duration_seconds": 2.0, "ramp_seconds": 0.5},
        "summary": {
            "ops": 100, "updates": 80, "queries": 20, "errors": 0,
            "measured_seconds": 2.5, "ops_per_sec": 40.0,
            "p50_ms": 1.0, "p99_ms": 5.0, "max_ms": 9.0,
            "convergence_lag_p50_ms": 2.0, "convergence_lag_p99_ms": 30.0,
            "task_errors": 0, "converged": True,
        },
        "series": [{
            "t": 1.0, "ops": 40, "ops_per_sec": 40.0,
            "p50_ms": 1.0, "p99_ms": 5.0, "convergence_lag_p99_ms": 25.0,
            "task_errors": 0, "errors": 0,
        }],
        "metrics": {"repro_net_frames_sent_total": 123},
    }


class TestNetReportValidator:
    def test_accepts_minimal_document(self):
        assert validate_net_report(minimal_net_report()) == []

    def test_rejects_non_dict(self):
        assert validate_net_report(None) == [
            "report must be a JSON object, got NoneType"
        ]

    def test_flags_wrong_format(self):
        doc = minimal_net_report()
        doc["format"] = "repro-net-report-v0"
        assert any("format" in e for e in validate_net_report(doc))

    def test_flags_missing_and_mistyped_fields(self):
        doc = minimal_net_report()
        del doc["summary"]["ops_per_sec"]
        doc["config"]["users"] = "many"
        errors = validate_net_report(doc)
        assert any("summary.ops_per_sec" in e for e in errors)
        assert any("config.users" in e for e in errors)

    def test_converged_is_nullable(self):
        doc = minimal_net_report()
        doc["summary"]["converged"] = None
        assert validate_net_report(doc) == []
        doc["summary"]["converged"] = "yes"
        assert validate_net_report(doc) != []

    def test_integers_satisfy_float_fields(self):
        # JSON has one number type; a whole-number measurement must pass.
        doc = minimal_net_report()
        doc["summary"]["p99_ms"] = 5
        doc["series"][0]["t"] = 1
        assert validate_net_report(doc) == []

    def test_flags_broken_series_rows(self):
        doc = minimal_net_report()
        doc["series"].append("not a row")
        doc["series"].append({"t": 2.0})
        errors = validate_net_report(doc)
        assert any("series[1] must be an object" in e for e in errors)
        assert any("series[2] missing field" in e for e in errors)

    def test_empty_series_is_valid_for_plain_load(self):
        doc = minimal_net_report()
        doc["kind"] = "load"
        doc["series"] = []
        assert validate_net_report(doc) == []
