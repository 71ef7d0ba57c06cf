# Developer entry points.  Everything is plain pytest underneath.

PYTHON ?= python

.PHONY: install test bench artifacts ledger ledger-compare examples lint serve loadtest soak all clean

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

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

artifacts:
	$(PYTHON) benchmarks/run_all.py

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

# Closed-loop load against a fresh in-process 3-replica asyncio cluster;
# exits non-zero below 500 sustained ops/sec (the CI floor).
loadtest:
	PYTHONPATH=src $(PYTHON) benchmarks/load_harness.py --check

# Soak mode: same harness with a per-second time-series (ops/sec, window
# p50/p99, convergence-lag p99) in a validated repro-net-report-v1 doc.
soak:
	PYTHONPATH=src $(PYTHON) benchmarks/load_harness.py --soak --check \
		--duration 10 --out net_soak.json

all: test bench artifacts

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
