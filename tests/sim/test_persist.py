"""Tests for trace persistence and the durable replica image (JSON
round-trips)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adt import Query, Update
from repro.core.criteria.witness import verify_suc_witness
from repro.core.universal import UniversalReplica
from repro.proto.wire import (
    decode_value,
    encode_value,
    replica_snapshot,
    restore_replica,
)
from repro.sim import Cluster
from repro.sim.network import ExponentialLatency
from repro.sim.persist import (
    load_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
)
from repro.specs import SetSpec
from repro.specs import set_spec as S

SPEC = SetSpec()


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, 42, -1.5, "text",
        (1, 2), frozenset({1, "a"}), {1: "x", (2, 3): frozenset()},
        Update("insert", (7,)),
        Query("read", (), frozenset({1})),
        [(1,), frozenset({2})],
        ((), (((),),)),
    ])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_types_preserved(self):
        out = decode_value(encode_value((1, 2)))
        assert isinstance(out, tuple)
        out = decode_value(encode_value(frozenset({1})))
        assert isinstance(out, frozenset)
        out = decode_value(encode_value({"k": 1}))
        assert isinstance(out, dict)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown tag"):
            decode_value({"@": "pickle", "data": "..."})

    values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.text(max_size=4)),
        lambda inner: st.one_of(
            st.tuples(inner, inner),
            st.frozensets(inner, max_size=3),
        ),
        max_leaves=8,
    )

    @given(values)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, value):
        assert decode_value(encode_value(value)) == value


class TestTraceRoundTrip:
    def make_trace(self):
        c = Cluster(3, lambda p, n: UniversalReplica(p, n, SPEC),
                    latency=ExponentialLatency(3.0), seed=5)
        for i in range(12):
            c.update(i % 3, S.insert(i % 4) if i % 2 else S.delete(i % 4))
            if i % 3 == 0:
                c.query((i + 1) % 3, "read")
        c.run()
        c.query(0, "read")
        return c.trace

    def test_json_round_trip(self):
        trace = self.make_trace()
        loaded = trace_from_json(trace_to_json(trace))
        assert len(loaded) == len(trace)
        for a, b in zip(trace.records, loaded.records):
            assert (a.eid, a.pid, a.time, a.label) == (b.eid, b.pid, b.time, b.label)
            assert dict(a.meta) == dict(b.meta)

    def test_loaded_trace_supports_witness_check(self):
        trace = self.make_trace()
        loaded = trace_from_json(trace_to_json(trace))
        h = loaded.to_history()
        res = verify_suc_witness(h, SPEC, loaded.suc_witness(h))
        assert res, res.reason

    def test_file_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "run.trace.json"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)

    def test_output_is_deterministic(self):
        a = trace_to_json(self.make_trace())
        b = trace_to_json(self.make_trace())
        assert a == b

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="repro-trace"):
            trace_from_json('{"format": "something-else", "records": []}')

    def test_non_operation_label_rejected(self):
        import json

        doc = {
            "format": "repro-trace-v1",
            "records": [{"eid": 0, "pid": 0, "time": 0.0,
                         "label": 42, "meta": {"@": "dict", "items": []}}],
        }
        with pytest.raises(ValueError, match="not an operation"):
            trace_from_json(json.dumps(doc))


class TestReplicaSnapshot:
    """The durable log behind crash-recovery (fsync-point truncation)."""

    def make_replica(self, n_updates=4):
        r = UniversalReplica(0, 3, SPEC)
        for i in range(n_updates):
            r.on_update(S.insert(i))
        r.on_message(1, (100, 1, S.insert(99)))
        return r

    def test_round_trip_restores_log_and_clock(self):
        old = self.make_replica()
        text = replica_snapshot(old)
        fresh = UniversalReplica(0, 3, SPEC)
        loaded = restore_replica(fresh, text)
        assert loaded == 5
        assert fresh.log_length == old.log_length
        assert fresh.clock.value == old.clock.value
        assert fresh.on_query("read") == old.on_query("read")

    def test_fsync_point_truncates_log_but_not_clock(self):
        old = self.make_replica()
        text = replica_snapshot(old, fsync_point=2)
        fresh = UniversalReplica(0, 3, SPEC)
        loaded = restore_replica(fresh, text)
        assert loaded == 2
        assert fresh.log_length == 2
        # WAL-cell model: the clock cell survives even when entries do not,
        # so the recovered process can never reuse a pre-crash timestamp.
        assert fresh.clock.value == old.clock.value

    def test_fsync_point_zero_means_full_amnesia(self):
        old = self.make_replica()
        fresh = UniversalReplica(0, 3, SPEC)
        assert restore_replica(fresh, replica_snapshot(old, fsync_point=0)) == 0
        assert fresh.log_length == 0
        assert fresh.clock.value == old.clock.value

    def test_fsync_point_validated(self):
        with pytest.raises(ValueError, match="non-negative"):
            replica_snapshot(self.make_replica(), fsync_point=-1)

    def test_pid_mismatch_rejected(self):
        text = replica_snapshot(self.make_replica())
        other = UniversalReplica(2, 3, SPEC)
        with pytest.raises(ValueError, match="belongs to process 0"):
            restore_replica(other, text)

    def test_wrong_format_rejected(self):
        # the retired v1/v2 documents are as foreign as any other JSON
        for fmt in ("nope", "repro-replica-log-v2"):
            with pytest.raises(ValueError, match="not a repro-replica-journal-v3"):
                restore_replica(
                    UniversalReplica(0, 3, SPEC),
                    '{"format": "%s", "pid": 0, "clock": 0, "entries": []}' % fmt,
                )

    def test_restore_is_idempotent_per_update(self):
        # Restoring on top of a replica that already knows some entries
        # only loads the missing ones.
        old = self.make_replica()
        text = replica_snapshot(old)
        fresh = UniversalReplica(0, 3, SPEC)
        fresh.on_message(1, (100, 1, S.insert(99)))  # already knows one
        assert restore_replica(fresh, text) == 4
        assert fresh.log_length == 5

    def test_snapshot_is_plain_json(self):
        import json

        doc = json.loads(replica_snapshot(self.make_replica()))
        assert doc["format"] == "repro-replica-journal-v3"
        assert doc["pid"] == 0
        assert doc["complete"] is True
        assert sum(rec["r"] == "entry" for rec in doc["records"]) == 5

    def test_non_dict_meta_rejected(self):
        import json

        doc = {
            "format": "repro-trace-v1",
            "records": [{"eid": 3, "pid": 0, "time": 0.0,
                         "label": encode_value(S.insert(1)),
                         "meta": [1, 2]}],
        }
        with pytest.raises(ValueError, match="record 3: meta is not a mapping"):
            trace_from_json(json.dumps(doc))


class TestJournalImage:
    """The v3 digest-chained image (what the storage engine persists)."""

    def make_replica(self, n_updates=4):
        r = UniversalReplica(0, 3, SPEC)
        for i in range(n_updates):
            r.on_update(S.insert(i))
        r.on_message(1, (100, 1, S.insert(99)))
        return r

    def test_round_trip_restores_log_and_clock(self):
        import json

        old = self.make_replica()
        text = replica_snapshot(old)
        # the write-ahead rule is the record order: clock before entries
        kinds = [rec["r"] for rec in json.loads(text)["records"]]
        assert kinds == ["meta", "clock"] + ["entry"] * 5
        fresh = UniversalReplica(0, 3, SPEC)
        assert restore_replica(fresh, text) == 5
        assert fresh.log_length == old.log_length
        assert fresh.clock.value == old.clock.value
        assert fresh.on_query("read") == old.on_query("read")

    def test_gc_replica_round_trip_restores_base_and_heard(self):
        from repro.core.checkpoint import GarbageCollectedReplica

        old = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        for i in range(8):
            old.on_update(S.insert(i))
        old.collect_garbage()
        fresh = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        restore_replica(fresh, replica_snapshot(old))
        assert fresh.local_state() == old.local_state()
        assert fresh.gc_clock_floor == old.gc_clock_floor
        assert tuple(fresh.heard) == tuple(old.heard)

    def test_tampered_record_breaks_the_chain(self):
        import json

        doc = json.loads(replica_snapshot(self.make_replica()))
        for rec in doc["records"]:
            if rec["r"] == "clock":
                rec["value"] += 1  # CRC-level tools would miss this
        with pytest.raises(ValueError, match="digest chain"):
            restore_replica(UniversalReplica(0, 3, SPEC), json.dumps(doc))

    def test_tampered_top_level_digest_rejected(self):
        import json

        doc = json.loads(replica_snapshot(self.make_replica()))
        doc["digest"] = "0" * len(doc["digest"])
        with pytest.raises(ValueError, match="digest mismatch"):
            restore_replica(UniversalReplica(0, 3, SPEC), json.dumps(doc))

    def test_reordered_records_rejected(self):
        import json

        doc = json.loads(replica_snapshot(self.make_replica()))
        doc["records"][-1], doc["records"][-2] = (
            doc["records"][-2], doc["records"][-1],
        )
        with pytest.raises(ValueError, match="digest chain"):
            restore_replica(UniversalReplica(0, 3, SPEC), json.dumps(doc))

    def test_heard_record_supersedes_the_base_copy(self):
        import json

        from repro.core.checkpoint import GarbageCollectedReplica
        from repro.proto.wire import JournalImage, journal_records

        old = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        for i in range(4):
            old.on_update(S.insert(i))
        records, _ = journal_records(old)
        # the engine appends heard advances between compactions; the
        # freshest record must win over the base segment's stale copy
        newer = (old.clock.value,)
        records.append({"r": "heard", "c": 99, "h": encode_value(newer)})
        fresh = GarbageCollectedReplica(0, 1, SPEC, checkpoint_interval=2)
        restore_replica(fresh, JournalImage(0, records, complete=True))
        assert tuple(fresh.heard) == newer

    def test_unsupported_version_rejected(self):
        # ProtocolCore.snapshot keeps a vestigial ``version`` keyword for
        # the frozen perf ledger; it names the one format and nothing else
        from repro.proto.core import ProtocolCore

        core = ProtocolCore(0, 3, lambda p, n: UniversalReplica(p, n, SPEC))
        assert core.snapshot(version=3) == core.snapshot()
        for version in (2, 7):
            with pytest.raises(ValueError, match="version"):
                core.snapshot(version=version)
