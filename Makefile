PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-json lint-strict lint-update-baseline bench bench-lint import-profile

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

# The 20 costliest imports (cumulative us) of what `repro serve` and each
# spawned cluster worker load; scipy/networkx must not appear.
import-profile:
	@$(PYTHON) -X importtime -c "from repro.cli import build_parser; \
		build_parser(); import repro.__main__, repro.service.cluster.worker, \
		repro.service.http" 2>&1 >/dev/null | sort -t'|' -k2 -rn | head -20
