# Developer entry points.  `make check` is the pre-merge gate: lint
# (when the tools are installed), the full test suite, and the
# benchmark regression gate against BENCH_baseline.json.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test perfgate serve-smoke bench

check: lint test perfgate serve-smoke

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

test:
	$(PYTHON) -m pytest tests/

# every gate runs the current code: the micro-benchmarks against
# BENCH_baseline.json, then the multicore, serve and throughput gates
perfgate:
	$(PYTHON) benchmarks/check_regression.py
	$(PYTHON) benchmarks/check_regression.py --multicore
	$(PYTHON) benchmarks/check_regression.py --serve
	$(PYTHON) benchmarks/check_regression.py --throughput

# end-to-end smoke of the HTTP job service: start, submit, poll,
# validate receipts, graceful SIGTERM drain
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# re-record the micro-benchmark timings (compare with perfgate)
bench:
	$(PYTHON) -m pytest benchmarks/test_core_micro.py benchmarks/test_predicates_micro.py benchmarks/test_pipeline_micro.py benchmarks/test_linalg_micro.py benchmarks/test_runtime_micro.py benchmarks/test_screen_micro.py benchmarks/test_pipeline_multicore.py benchmarks/test_serve_latency.py benchmarks/test_batch_throughput.py --benchmark-json BENCH_current.json
