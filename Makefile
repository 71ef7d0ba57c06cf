# Developer entry points.  Everything is plain pytest underneath.

PYTHON ?= python

.PHONY: install test bench ledger ledger-compare examples lint serve all clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Static analysis: the project's own protocol linter always runs; ruff and
# mypy run when installed (the CI static-analysis job installs both).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
		ruff format --check src/repro/lint; \
	else echo "ruff not installed; skipping (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

# Regenerates every paper artefact under benchmarks/results/ (counts
# only: CI fails on any diff there).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The perf ledger (benchmarks/ledger/README.md): four workloads, every
# end-to-end metric of BENCHMARK.json, correctness-checked.  Compare two
# ledger documents with `make ledger-compare A=before.json B=after.json`
# (exit 1 on any "worse" row).
ledger:
	PYTHONPATH=src $(PYTHON) benchmarks/ledger/run.py --out ledger.json

ledger-compare:
	$(PYTHON) benchmarks/ledger/compare.py $(A) $(B)

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

# One asyncio replica with an HTTP object front-end on localhost:8080
# (see README "Serving an object over HTTP" for the multi-replica form).
serve:
	PYTHONPATH=src $(PYTHON) -m repro.net serve --object set \
		--pid 0 --peers 127.0.0.1:9000 --http-port 8080

all: test bench

# Caches only: benchmarks/results/ is committed and CI-pinned.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/ledger/.work
	find . -name __pycache__ -type d -exec rm -rf {} +
