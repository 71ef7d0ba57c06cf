"""Tier-1 tests of the perf ledger (``benchmarks/ledger``).

Three things must hold for every later performance claim to mean
anything: the arithmetic the ledger reports with is right, its inputs
are a pure function of the seed, and the public surfaces of ``src/`` it
drives still exist — a refactor that breaks one fails here, at tiny
size, not in the next perf PR.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

from ledger import compare, loadgen, run, spans, stats, workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in CONTRACT["end_to_end"]]
LAYERS = [m["name"] for m in CONTRACT["per_layer"]]


class TestStats:
    def test_percentile_interpolates_between_ranks(self):
        assert stats.percentile([1, 2, 3, 4], 0.5) == 2.5
        assert stats.percentile([4, 1, 3, 2], 0.0) == 1
        assert stats.percentile([1, 2, 3, 4], 1.0) == 4
        assert stats.percentile(list(range(101)), 0.99) == 99
        assert stats.percentile([7], 0.99) == 7

    def test_percentile_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)
        with pytest.raises(ValueError):
            stats.percentile([1], 1.5)

    def test_windows_are_contiguous_and_balanced(self):
        parts = stats.windows(list(range(10)), 4)
        assert parts == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
        assert stats.window_percentiles(list(range(8)), 4, 0.5) == [0.5, 2.5, 4.5, 6.5]

    def test_quiet_level_ignores_a_disturbed_majority(self):
        quiet = [1.0, 1.02, 0.98, 1.01]
        assert stats.quiet_level(quiet + [3.0, 4.0, 2.5, 5.0, 2.0, 6.0]) < 1.3
        assert stats.quiet_level([2.0 * x for x in quiet]) == pytest.approx(
            2.0 * stats.quiet_level(quiet)
        )


class TestInputs:
    def test_schedule_is_fixed_interval(self):
        assert loadgen.schedule(4, 200.0) == [0.0, 0.005, 0.01, 0.015]

    def test_equal_seeds_equal_streams_and_different_seeds_differ(self):
        assert loadgen.mesh_ops(7, 500, 2) == loadgen.mesh_ops(7, 500, 2)
        assert loadgen.mesh_ops(7, 500, 2) != loadgen.mesh_ops(8, 500, 2)
        assert loadgen.sim_ops(7, 500) == loadgen.sim_ops(7, 500)
        assert loadgen.sim_ops(7, 500) != loadgen.sim_ops(8, 500)

    def test_mesh_mix_is_four_updates_to_one_checkable_query(self):
        ops = loadgen.mesh_ops(3, 1000, 2)
        assert sum(op.kind == "contains" for op in ops) == 200
        assert all(ops[i].kind == "contains" for i in range(4, 1000, 5))
        inserts = [op.value for op in ops if op.kind == "insert"]
        assert len(set(inserts)) == len(inserts)
        assert all(len(str(v)) == 7 for v in inserts)
        seen: list[set[int]] = [set(), set()]
        for i, op in enumerate(ops):
            if op.kind == "insert":
                seen[i % 2].add(op.value)
            else:  # a hit was inserted earlier on the same connection
                assert op.expect is (op.value in seen[i % 2])

    def test_sim_mix(self):
        ops = loadgen.sim_ops(3, 5000)
        updates = [op for op in ops if op.kind != "contains"]
        assert len(updates) == 4000
        assert 0.75 < sum(op.kind == "insert" for op in updates) / 4000 < 0.85
        assert {op.pid for op in ops} == {0, 1, 2}


class TestSpans:
    def test_self_time_on_a_hand_built_tree(self):
        rec = spans.SpanRecorder()
        root = rec.add("root", 0.0, 10.0, 1)
        a = rec.add("a", 1.0, 4.0, 1, parent=root)
        rec.add("a.inner", 2.0, 3.0, 1, parent=a)
        rec.add("b", 3.5, 6.0, 1, parent=root)  # overlaps a by 0.5
        rec.add("c", 9.0, 12.0, 1, parent=root)  # clipped to the root
        own = spans.self_times(rec.spans)
        assert own[root] == pytest.approx(10.0 - (3.0 + 2.0 + 1.0))
        assert own[a] == pytest.approx(2.0)
        by_name = spans.self_times_by_name(rec.spans)
        assert by_name["a.inner"] == [pytest.approx(1.0)]
        assert by_name["root"] == [own[root]]

    def test_disabled_recorder_records_nothing(self):
        rec = spans.SpanRecorder(enabled=False)
        assert rec.add("x", 0.0, 1.0, 1) is None
        assert rec.spans == []

    def test_chrome_trace_keeps_op_ids_and_parents(self):
        rec = spans.SpanRecorder()
        root = rec.add("pipeline.op", 5.0, 6.0, 42)
        rec.add("proto.core.submit", 5.1, 5.2, 42, parent=root)
        doc = json.loads(json.dumps(spans.chrome_trace(rec.spans, name="t")))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["args"]["op_id"] for e in events] == [42, 42]
        assert events[1]["args"]["parent"] == events[0]["args"]["span"]
        assert events[0]["ts"] == 0 and events[1]["dur"] == pytest.approx(1e5)


class TestCompare:
    def _doc(self, **overrides):
        entry = {
            "end_to_end": {name: 1.0 for name in E2E},
            "per_layer": {name: None for name in LAYERS},
            "failed_ops_share": 0.0,
            "flags": [],
        }
        entry["per_layer"]["sim.messages_per_update"] = 2.0
        for key, value in overrides.items():
            group = "end_to_end" if key in E2E else "per_layer"
            if key == "failed_ops_share":
                entry[key] = value
            else:
                entry[group][key] = value
        return {"workloads": {"sim-protocol": entry}}

    def _verdicts(self, a, b):
        return {name: word for _w, name, _a, _b, word in compare.rows(CONTRACT, a, b)}

    def test_within_bound_is_ok_beyond_is_worse(self):
        bound = next(m["bound"] for m in CONTRACT["end_to_end"]
                     if m["name"] == "update_p50_ms")
        near = self._verdicts(self._doc(), self._doc(update_p50_ms=1.0 + bound * 0.9))
        far = self._verdicts(self._doc(), self._doc(update_p50_ms=1.0 + bound * 1.1))
        assert near["update_p50_ms"] == "ok" and far["update_p50_ms"] == "worse"
        assert self._verdicts(self._doc(), self._doc(update_p50_ms=0.5))[
            "update_p50_ms"] == "ok"

    def test_exact_counts_and_failures_must_be_equal(self):
        words = self._verdicts(
            self._doc(), self._doc(**{"sim.messages_per_update": 2.0001})
        )
        assert words["sim.messages_per_update"] == "worse"
        assert self._verdicts(self._doc(), self._doc(failed_ops_share=0.001))[
            "failed_ops_share"] == "worse"
        assert self._verdicts(self._doc(), self._doc())["failed_ops_share"] == "ok"

    def test_missing_is_unresolved_and_unbounded_is_info(self):
        words = self._verdicts(
            self._doc(**{"sim.update_us": 3.0}),
            self._doc(update_p50_ms=None, **{"sim.update_us": 9.0}),
        )
        assert words["update_p50_ms"] == "unresolved"
        assert words["sim.update_us"] == "info"
        assert "proto.wire.encode_us" not in words  # off path on both sides

    def test_exit_code_follows_worse_rows(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(self._doc()))
        b.write_text(json.dumps(self._doc(cpu_ms_per_op=2.0)))
        assert compare.main([str(a), str(a)]) == 0
        assert compare.main([str(a), str(b)]) == 1
        assert "worse" in capsys.readouterr().out


class TestContract:
    """``BENCHMARK.json`` against the driver's schema."""

    def test_keys_names_and_bounds(self):
        assert set(CONTRACT) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in CONTRACT["workloads"]] + E2E + LAYERS
        assert len(set(names)) == len(names)
        assert all(name_re.match(n) for n in names)
        assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
        for w in CONTRACT["workloads"]:
            assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        for m in CONTRACT["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert 0 < m["bound"] <= 0.25 and unit_re.match(m["unit"])
        for m in CONTRACT["per_layer"]:
            assert set(m) == {"name", "unit", "better"} and unit_re.match(m["unit"])
        setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def _tiny(name: str):
    spec = run.spec_of(name)
    if isinstance(spec, workloads.SimSpec):
        return dataclasses.replace(
            spec, ops=200, warmup_ops=50, setups=1, min_reps=1,
            sync_every=50, rejoins=1, rejoin_ops=20,
        )
    return dataclasses.replace(
        spec, preload=min(spec.preload, 40), pause=0.0, rate=200.0,
        warmup=min(spec.warmup, 10), setups=1, rejoins=1, cold_starts=1,
        direct_submits=20,
    )


def _smoke(name: str, tmp_path, *, traced: bool):
    recorder = spans.SpanRecorder(enabled=traced)
    entry = run.run_workload(
        _tiny(name), seed=5, seconds=0.25, work_dir=str(tmp_path),
        traced=traced, recorder=recorder, layer_names=LAYERS,
    )
    assert entry["correct"], (entry["checks"], entry["failed"])
    assert entry["failed_ops_share"] == 0
    assert entry["probe_errors"] == []
    # Every name in BENCHMARK.json appears in the output, and vice versa.
    assert list(entry["end_to_end"]) != [] and set(entry["end_to_end"]) == set(E2E)
    assert set(entry["per_layer"]) == set(LAYERS)
    assert all(value > 0 for value in entry["end_to_end"].values())
    return entry, recorder


class TestWorkloadSmoke:
    """Tens of ops through each workload's real code path."""

    def test_mesh_steady_traced(self, tmp_path):
        entry, recorder = _smoke("mesh-steady", tmp_path, traced=True)
        layers = entry["per_layer"]
        measured = {name for name, value in layers.items() if value is not None}
        assert {name for name in LAYERS if not name.startswith("sim.")} <= measured
        assert layers["net.node.frames_per_update"] >= 2
        assert layers["net.node.task_errors"] == 0
        # A live request and the pipeline spans replaying it share an op_id.
        by_op = {}
        for span in recorder.spans:
            by_op.setdefault(span.op_id, set()).add(span.name)
        assert {"client.insert", "pipeline.op", "proto.core.submit",
                "proto.wire.encode", "net.framing.decode"} <= by_op[0]
        line = json.loads(run.result_line(
            {"mesh-steady": entry},
            {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}, "per_layer",
        ))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(LAYERS)
        assert line["metrics"]["sim.us_per_op"]["value"] == 0.0  # off path

    def test_mesh_degraded(self, tmp_path):
        entry, _ = _smoke("mesh-degraded", tmp_path, traced=False)
        assert entry["per_layer"]["net.node.frames_dropped"] > 0  # the dead peer
        assert entry["per_layer"]["proto.core.submit_us"] is None  # traced only

    def test_solo_durable_traced_has_no_wire(self, tmp_path):
        entry, _ = _smoke("solo-durable", tmp_path, traced=True)
        layers = entry["per_layer"]
        for name in LAYERS:
            if name.startswith(("proto.wire.", "net.framing.")):
                assert layers[name] is None
        assert layers["proto.core.deliver_us"] is None
        assert layers["storage.engine.sync_us"] > 0
        assert layers["storage.engine.records"] > 40

    def test_sim_protocol_traced_counts_repeat(self, tmp_path):
        entry, _ = _smoke("sim-protocol", tmp_path, traced=True)
        again, _ = _smoke("sim-protocol", tmp_path, traced=False)
        for name in compare.EXACT:
            assert entry["per_layer"][name] == again["per_layer"][name]
        layers = entry["per_layer"]
        assert layers["proto.wire.encode_us"] is None
        assert layers["storage.engine.sync_us"] is None
        assert layers["core.sync.serve_us"] > 0
        assert layers["ledger.unattributed_share"] is not None
