PYTHON ?= python
export PYTHONPATH := src

.PHONY: test durability lint lint-json lint-strict lint-update-baseline bench bench-lint import-profile

test:
	$(PYTHON) -m pytest -x -q

# The crash and durability tests, by name: worker SIGKILL, lost ingest-WAL
# tail, coordinator SIGKILL after acks, torn tail, SIGTERM drain,
# real-process recovery crashes, and the group-commit invariant and
# power-loss tests.
DURABILITY_TESTS = \
	tests/test_service_cluster.py::TestWorkerCrashRecovery \
	tests/test_service_cluster.py::TestPowerLoss \
	tests/test_service_cluster.py::TestCoordinatorProcessKill \
	tests/test_service_cluster.py::test_serve_sigterm_drains_cluster \
	tests/test_service_recovery_crash.py \
	tests/test_service_wal.py::TestWriteAheadLog::test_worker_flush_fsyncs_a_chunk_once \
	tests/test_service_wal.py::TestGroupCommit \
	tests/test_service_wal.py::TestSegments::test_torn_partial_line_dropped_once \
	tests/test_service_wal.py::TestSegments::test_torn_unparseable_final_line_dropped_once \
	tests/test_service_wal.py::TestCrashRecovery \
	tests/test_service_wal.py::TestSnapshots::test_snapshot_every_counts_accepted_ratings \
	tests/test_cli_service.py::TestReplay::test_reopening_a_replayed_wal_dir_recovers_its_flushes

durability:
	$(PYTHON) -m pytest -q $(DURABILITY_TESTS)

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
