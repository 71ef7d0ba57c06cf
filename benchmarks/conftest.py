"""Benchmark harness plumbing.

Every bench regenerates one of the paper's artifacts (see DESIGN.md's
per-experiment index): it times the computational core with
pytest-benchmark, asserts the *shape* the paper predicts (who wins, by
roughly what factor, where the crossover falls), and saves the regenerated
rows/series under ``benchmarks/results/``.  A saved result holds counts
only, never seconds, so it is a pure function of its seeds and CI pins
the whole directory byte-identical; wall-clock figures belong to the perf
ledger (``benchmarks/ledger/``).

Run everything (and regenerate every result) with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save
