PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-json lint-strict lint-update-baseline bench bench-lint

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.devtools src

lint-strict:
	$(PYTHON) -m repro.devtools src --strict

lint-json:
	$(PYTHON) -m repro.devtools src --format=json

lint-update-baseline:
	$(PYTHON) -m repro.devtools src --update-baseline

bench:
	PYTHONPATH=src:. $(PYTHON) -m benchmarks.e2e

bench-lint:
	$(PYTHON) benchmarks/bench_lint.py --json lint-bench.json
