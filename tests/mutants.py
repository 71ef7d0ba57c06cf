"""Curated mutants: every defect once fixed stays caught.

Each entry plants one known defect — one exact, unique piece of old text
replaced by new text — in a copy of ``src/`` and ``tests/``, runs only
the tests it names, and requires them to fail.  A test that a later
refactor weakens until it no longer catches its defect then fails here
instead of passing quietly.

Rules the runner enforces:

* the named tests pass on the unmutated copy (a test failing anyway
  kills nothing);
* the old text occurs exactly once in its file, and the ``guards`` text
  occurs in ``CHANGES.md`` — otherwise the entry is *stale* and fails
  loudly;
* the named tests fail under the mutant (pytest exit code 1); a mutant
  that survives, or one that breaks collection, fails the run.

An entry is never deleted or loosened to make a run pass; a change that
deletes the mutated code re-points the entry at the code that now
carries the guarantee.  The file is not named ``test_*.py``, so the test
suite does not collect it.  Run it from the repository root::

    python tests/mutants.py            # every entry
    python tests/mutants.py ID ...     # the named entries
    python tests/mutants.py --list
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    #: text of the ``CHANGES.md`` line whose mend this mutant undoes.
    guards: str
    path: str
    old: str
    new: str
    #: pytest node ids, relative to the repository root.
    tests: tuple[str, ...]


UNIVERSAL = "src/repro/core/universal.py"
REPLAY = "src/repro/core/replay.py"
NODE = "src/repro/net/node.py"
GC = "src/repro/core/checkpoint.py"
ENGINE = "src/repro/storage/engine.py"
GC_MESH = "tests/net/test_gc_mesh.py::"
CLAIM = "tests/core/test_query_cost.py::TestWitnessCapturedOnClaim::"
KEYED_TEST = (
    "tests/core/test_query_cost.py::"
    "test_a_busy_keyed_replica_copies_nothing_and_checks_a_late_write_by_slot"
)
SEAM = "tests/core/test_fast_path.py::TestCollectAndInstall::"
HEADER_TEST = (
    "tests/net/test_trace.py::"
    "test_only_a_traced_node_puts_trace_headers_on_update_frames"
)

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        id="on-query-records-no-witness",
        guards="`collect_message_stats` reads Lamport timestamps from the "
        "trace's witness meta",
        path=UNIVERSAL,
        old="        self._last_meta = meta\n"
        "        return self.spec.observe(state, name, args)  # line 18\n",
        new="        return self.spec.observe(state, name, args)  # line 18\n",
        tests=(
            "tests/core/test_tools_cli.py::TestSimulate::"
            "test_gc_strategy_records_the_witness",
        ),
    ),
    Mutant(
        id="submit-traces-with-the-tracer-off",
        guards="frame carries trace headers iff the node's tracer is enabled",
        path=NODE,
        old="        if ctx is None or not self.tracer.enabled:\n",
        new="        if ctx is None:\n",
        tests=(HEADER_TEST,),
    ),
    Mutant(
        id="submit-never-traces",
        guards="frame carries trace headers iff the node's tracer is enabled",
        path=NODE,
        old="            self._out_traces = {ts: (ctx.trace_id, ctx.t0)}\n",
        new="",
        tests=(
            HEADER_TEST,
            "tests/net/test_trace.py::test_one_update_links_spans_across_all_nodes",
        ),
    ),
    Mutant(
        id="arrived-mutated-in-place-at-a-cut",
        guards="A query's witness costs O(1)",
        path=UNIVERSAL,
        old="        self._arrived = list(self._keys)\n",
        new="        self._arrived[:] = self._keys\n",
        tests=(
            "tests/core/test_known_ids.py::TestKnownIds::"
            "test_a_view_taken_before_a_cut_still_walks_its_ids",
        ),
    ),
    Mutant(
        id="arrived-not-rebound-at-a-cut",
        guards="A query's witness costs O(1)",
        path=UNIVERSAL,
        old="        self._arrived = list(self._keys)\n",
        new="",
        tests=(CLAIM + "test_a_collection_between_query_and_claim_changes_nothing",),
    ),
    Mutant(
        id="late-insert-not-arrived",
        guards="A query's witness costs O(1)",
        path=UNIVERSAL,
        old="        self._arrived.append(key)\n",
        new="        if pos == len(keys) - 1:\n"
        "            self._arrived.append(key)\n",
        tests=(CLAIM + "test_claimed_at_once_is_the_eager_witness",),
    ),
    Mutant(
        id="view-shared-after-growth",
        guards="A query's witness costs O(1)",
        path="src/repro/sim/replica.py",
        old="if last is not None and last._ids is ids and last._n == len(ids):",
        new="if last is not None and last._ids is ids:",
        tests=(CLAIM + "test_unclaimed_witnesses_build_no_visibility_set",),
    ),
    Mutant(
        id="duplicate-delivery-applied-twice",
        guards="One apply-on-receipt path",
        path=UNIVERSAL,
        old="        if self._covers_uid(cl, j):\n"
        "            return ()  # relayed / network duplicate\n",
        new="",
        tests=(
            "tests/core/test_universal.py::TestWitness::"
            "test_fold_counts_a_duplicated_delivery_once",
        ),
    ),
    Mutant(
        id="keyed-folds-a-late-arrival-without-the-shadow-scan",
        guards="A keyed replay for the shipped set and map",
        path=REPLAY,
        old="            if slot(log[i][2]) == key:\n"
        "                break  # shadowed: a later write to its slot is folded\n",
        new="            pass\n",
        tests=(KEYED_TEST,),
    ),
    Mutant(
        id="keyed-scan-stops-one-short",
        guards="A keyed replay for the shipped set and map",
        path=REPLAY,
        old="        for i in range(pos + 1, applied + 1):\n",
        new="        for i in range(pos + 1, applied):\n",
        tests=(KEYED_TEST,),
    ),
    Mutant(
        id="keyed-collected-moves-nothing",
        guards="one replica, one replay seam",
        path=REPLAY,
        old="        if self._applied >= cut:\n"
        "            self._applied -= cut\n"
        "        else:\n"
        "            self._restart(base)\n",
        new="        pass\n",
        tests=(SEAM + "test_a_collection_under_and_past_the_folded_prefix[keyed]",),
    ),
    Mutant(
        id="keyed-installed-keeps-the-old-fold",
        guards="one replica, one replay seam",
        path=REPLAY,
        old="    def installed(self, log: Log, base: Any) -> None:\n"
        "        self._restart(base)\n",
        new="    def installed(self, log: Log, base: Any) -> None:\n"
        "        pass\n",
        tests=(SEAM + "test_a_state_install_replaces_the_folded_state[keyed]",),
    ),
    Mutant(
        id="checkpoint-collected-moves-nothing",
        guards="one replica, one replay seam",
        path=REPLAY,
        old="        if self._applied >= cut:\n"
        "            self._applied -= cut\n"
        "        else:\n"
        "            self._share_tip(0, base)\n",
        new="",
        tests=(
            SEAM + "test_a_collection_under_and_past_the_folded_prefix[checkpoint]",
        ),
    ),
    Mutant(
        id="checkpoint-installed-keeps-the-old-tip",
        guards="one replica, one replay seam",
        path=REPLAY,
        old="        self._ckpts.reset(base)\n"
        "        self._share_tip(0, base)\n",
        new="        self._ckpts.reset(base)\n",
        tests=(SEAM + "test_a_state_install_replaces_the_folded_state[checkpoint]",),
    ),
    Mutant(
        id="first-gap-skips-a-run-ending-on-the-clock",
        guards="An anti-entropy round between replicas that agree costs a "
        "run-list comparison",
        path="src/repro/core/sync.py",
        old="            while i < m and minus[i][1] < lo:\n",
        new="            while i < m and minus[i][1] <= lo:\n",
        tests=(
            "tests/core/test_sync.py::TestRunComparison::"
            "test_first_gap_on_runs_that_abut_or_share_an_end",
        ),
    ),
    Mutant(
        id="gc-heard-ignores-the-epoch",
        guards="link epochs make `heard` sound",
        path=GC,
        old="        if src == j and self.link_epochs[j] is LINK_COMPLETE:\n"
        "            # The claim",
        new="        if src == j:\n"
        "            # The claim",
        tests=(
            "tests/proto/test_core.py::TestRejoinUnderLiveTraffic::"
            "test_updates_missed_while_down_are_paged_after_the_redial",
            GC_MESH + "test_a_link_that_dropped_frames_claims_nothing_until_"
            "its_round_completes",
            "tests/sim/test_fault_injection.py::TestGCOverLossyLinks::"
            "test_a_lost_frame_opens_a_new_epoch_that_a_round_completes",
        ),
    ),
    Mutant(
        id="sync-loop-never-heartbeats",
        guards="the sync tick heartbeats",
        path=NODE,
        old="                self._apply_effects(self.core.sync_tick(\"heartbeat\"))\n",
        new="",
        tests=(
            GC_MESH + "test_a_healthy_gc_mesh_keeps_what_is_in_flight_not_"
            "every_update",
        ),
    ),
    Mutant(
        id="compact-on-every-floor-move",
        guards="compaction is amortized",
        path=ENGINE,
        old="            or journal.bytes_on_disk() >= 2 * self._whole_bytes\n",
        new="            or True\n",
        tests=(
            "tests/storage/test_engine.py::TestGcCompaction::"
            "test_compaction_is_amortized_against_what_was_appended",
        ),
    ),
    Mutant(
        id="journaled-collection-folds-unflushed-entries",
        guards="compaction is amortized",
        path=GC,
        old="        if self.journaled and self.unflushed_from < len(self._keys):\n",
        new="        if False:\n",
        tests=(
            "tests/storage/test_engine.py::TestGcCompaction::"
            "test_a_deferred_rewrite_loses_nothing",
        ),
    ),
    Mutant(
        id="installed-base-waits-for-doubling",
        guards="compaction is amortized",
        path=ENGINE,
        old="            replica.installed_floor > base_floor\n",
        new="            False\n",
        tests=(
            "tests/storage/test_engine.py::TestGcCompaction::"
            "test_an_installed_base_is_rewritten_at_once",
        ),
    ),
    Mutant(
        id="installed-floor-forgotten",
        guards="ROADMAP item 12 fixed",
        path=GC,
        old="        if self._installed_floor < cl <= self._gc_clock_floor:\n",
        new="        if cl <= self._gc_clock_floor:\n",
        tests=(
            "tests/core/test_fast_path.py::TestDifferentialFuzz::"
            "test_optimized_variants_differential",
        ),
    ),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    # no bytecode: a mutant of the same size, written in the same second
    # as its source, could otherwise run from a stale cached module
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _stale(m: Mutant, changes: str) -> str | None:
    """Why ``m`` no longer applies to the tree, or None."""
    if m.guards not in changes:
        return f"guarded line not in CHANGES.md: {m.guards!r}"
    count = (ROOT / m.path).read_text().count(m.old)
    if count != 1:
        return f"old text occurs {count} times in {m.path}, not once"
    return None


def run(mutants: tuple[Mutant, ...]) -> bool:
    """Apply each mutant to a fresh copy and require its tests to fail."""
    changes = (ROOT / "CHANGES.md").read_text()
    ok = True
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        pristine = Path(tmp) / "pristine"
        _copy_tree(pristine)
        union = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        base = _pytest(pristine, union)
        if base.returncode != 0:
            print(base.stdout[-3000:])
            print(f"FAIL  the named tests do not pass unmutated (exit {base.returncode})")
            return False
        for m in mutants:
            why = _stale(m, changes)
            if why is not None:
                print(f"STALE     {m.id}: {why}")
                ok = False
                continue
            tree = Path(tmp) / m.id
            shutil.copytree(pristine, tree)
            target = tree / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            result = _pytest(tree, m.tests)
            took = time.perf_counter() - start
            if result.returncode == 1:
                print(f"KILLED    {m.id} ({took:.1f} s)")
            else:
                verdict = "SURVIVED" if result.returncode == 0 else "BROKEN"
                print(result.stdout[-3000:])
                print(f"{verdict:9s} {m.id}: pytest exit {result.returncode}")
                ok = False
            shutil.rmtree(tree)
    return ok


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.id}: {m.path} -> {', '.join(m.tests)}")
        return 0
    by_id = {m.id: m for m in MUTANTS}
    unknown = [a for a in argv if a not in by_id]
    if unknown:
        print(f"unknown mutant ids: {unknown}; see --list", file=sys.stderr)
        return 2
    chosen = tuple(by_id[a] for a in argv) or MUTANTS
    start = time.perf_counter()
    ok = run(chosen)
    print(f"{len(chosen)} mutants, {'all killed' if ok else 'NOT all killed'}, "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
