PYTHON ?= python
export PYTHONPATH := src

.PHONY: test durability lint lint-json lint-strict lint-update-baseline bench bench-ensemble bench-lint import-profile

test:
	$(PYTHON) -m pytest -x -q

# The crash and durability tests, by name: worker SIGKILL, lost ingest-WAL
# tail, coordinator SIGKILL after acks, a worker SIGKILLed while a full
# credit window blocks a submit, torn tail, SIGTERM drain,
# real-process recovery crashes, the group-commit invariant and
# power-loss tests, and the HTTP stop that answers in-flight requests.
DURABILITY_TESTS = \
	tests/test_service_cluster.py::TestWorkerCrashRecovery \
	tests/test_service_cluster.py::TestPowerLoss \
	tests/test_service_cluster.py::TestCoordinatorProcessKill \
	tests/test_service_cluster.py::TestBackpressure \
	tests/test_service_cluster.py::TestScoreView::test_rpc_overtaken_by_an_ack_is_not_kept \
	tests/test_service_cluster.py::TestScoreView::test_drop_follows_the_frame_send \
	tests/test_service_cluster.py::TestScoreView::test_restarted_worker_answers_from_its_new_state \
	tests/test_service_cluster.py::test_serve_sigterm_drains_cluster \
	tests/test_service_recovery_crash.py \
	tests/test_service_wal.py::TestWriteAheadLog::test_worker_flush_fsyncs_a_chunk_once \
	tests/test_service_wal.py::TestGroupCommit \
	tests/test_service_wal.py::TestSegments::test_torn_partial_line_dropped_once \
	tests/test_service_wal.py::TestSegments::test_torn_unparseable_final_line_dropped_once \
	tests/test_service_wal.py::TestCrashRecovery \
	tests/test_service_wal.py::TestSnapshots::test_snapshot_every_counts_accepted_ratings \
	tests/test_cli_service.py::TestReplay::test_reopening_a_replayed_wal_dir_recovers_its_flushes \
	tests/test_service_http.py::TestGracefulStop

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

# Rebuild the committed ensemble ingest-throughput artifact.
bench-ensemble:
	$(PYTHON) benchmarks/bench_ensemble.py --json BENCH_ensemble.json

# Rebuild the committed lint wall-time artifact (median of 3 cold runs).
bench-lint:
	$(PYTHON) benchmarks/bench_lint.py --json BENCH_lint.json

# The 20 costliest imports (cumulative us) of what `repro serve` and each
# spawned cluster worker load; scipy/networkx must not appear.
import-profile:
	@$(PYTHON) -X importtime -c "from repro.cli import build_parser; \
		build_parser(); import repro.__main__, repro.service.cluster.worker, \
		repro.service.http" 2>&1 >/dev/null | sort -t'|' -k2 -rn | head -20
