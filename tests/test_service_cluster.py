"""Tests for the multi-process sharded serving tier.

The expensive guarantees are checked end to end against real worker
processes: a single-worker cluster is bit-for-bit equivalent to the
in-process engine, a graceful stop never loses an acked rating, and a
SIGKILL'd worker is restarted and replayed back to the exact state of
an uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ratings.models import Rating
from repro.service.cluster import ClusterCoordinator, ConsistentHashRing
from repro.service.cluster.framing import recv_msg, send_msg
from repro.service.config import ServiceConfig
from repro.service.engine import RatingEngine
from repro.service.http import start_background
from repro.service.ledger import TrustLedger
from repro.service.metrics import SHARED_FAMILIES, MetricsRegistry
from repro.service.wal import WriteAheadLog, replay_wal


def make_stream(n=300, n_products=6, n_raters=10, seed=11):
    rng = random.Random(seed)
    stream = []
    t = 0.0
    for i in range(n):
        t += rng.random()
        stream.append(
            Rating(
                rating_id=i,
                rater_id=rng.randrange(n_raters),
                product_id=rng.randrange(n_products),
                value=rng.random(),
                time=t,
            )
        )
    return stream


def cluster_config(wal_dir, workers, **overrides):
    base = dict(
        cluster_workers=workers,
        wal_dir=str(wal_dir),
        batch_max_ratings=25,
        detector_window=16,
        detector_stride=8,
    )
    base.update(overrides)
    return ServiceConfig(**base)


# -- ring -------------------------------------------------------------------


class TestConsistentHashRing:
    def test_routing_is_deterministic_and_in_range(self):
        ring = ConsistentHashRing(4)
        again = ConsistentHashRing(4)
        for product_id in range(200):
            owner = ring.owner(product_id)
            assert 0 <= owner < 4
            assert again.owner(product_id) == owner

    def test_every_worker_owns_something(self):
        ring = ConsistentHashRing(4)
        spread = ring.spread(range(500))
        assert set(spread) == {0, 1, 2, 3}
        assert all(count > 0 for count in spread.values())

    def test_single_worker_owns_everything(self):
        ring = ConsistentHashRing(1)
        assert ring.spread(range(50)) == {0: 50}

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(0)
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(2, replicas=0)


# -- framing ----------------------------------------------------------------


def test_framing_round_trips_floats_bit_for_bit():
    left, right = multiprocessing.Pipe()
    message = {
        "type": "digest",
        "values": [0.1 + 0.2, 1e-308, float(2**53 - 1), -0.0],
    }
    send_msg(left, message)
    received = recv_msg(right)
    assert received == message
    assert [v.hex() for v in received["values"]] == [
        v.hex() for v in message["values"]
    ]
    left.close()
    right.close()


# -- config -----------------------------------------------------------------


class TestClusterConfig:
    def test_cluster_workers_require_wal_dir(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(cluster_workers=2)

    def test_worker_config_derivation(self, tmp_path):
        config = cluster_config(tmp_path, workers=3)
        worker = config.worker_config(1)
        assert worker.n_shards == 1
        assert worker.cluster_workers == 0
        assert worker.snapshot_every == 0
        assert worker.wal_dir == f"{tmp_path}/worker-001"
        assert worker.batch_max_ratings == config.batch_max_ratings

    def test_worker_config_rejects_bad_index(self, tmp_path):
        config = cluster_config(tmp_path, workers=2)
        with pytest.raises(ConfigurationError):
            config.worker_config(2)


# -- metrics helpers --------------------------------------------------------


def test_counter_inc_to_is_monotone():
    registry = MetricsRegistry()
    counter = registry.counter("x_total")
    counter.inc_to(5)
    assert counter.value == 5
    counter.inc_to(3)  # stale lower total: no-op
    assert counter.value == 5
    counter.inc_to(9)
    assert counter.value == 9


# -- cluster end-to-end -----------------------------------------------------


@pytest.mark.slow
class TestClusterEquivalence:
    def test_single_worker_matches_in_process_engine(self, tmp_path):
        """The cluster is the engine, sharded: with one worker the whole
        pipeline (route, WAL, queue, digest, redelivery machinery) must
        produce bit-for-bit the state of a default in-process engine."""
        stream = make_stream()
        reference = RatingEngine(
            config=ServiceConfig(
                batch_max_ratings=25,
                detector_window=16,
                detector_stride=8,
            )
        )
        for rating in stream:
            reference.submit(rating)
        reference.flush()

        cluster = ClusterCoordinator(cluster_config(tmp_path, workers=1))
        try:
            for rating in stream:
                result = cluster.submit(rating)
                assert result.accepted and result.queued
            cluster.flush()
            assert cluster.trust_table() == reference.trust_table()
            assert cluster.suspicion_table() == reference.suspicion_table()
            assert cluster.detected_malicious() == reference.detected_malicious()
            for product_id in range(6):
                assert cluster.score(product_id) == reference.score(product_id)
            worker = cluster.snapshot_stats()["workers"][0]
            assert worker["n_raters"] == reference.snapshot_stats()["n_raters"]
        finally:
            cluster.close()

    def test_graceful_stop_loses_no_acked_rating(self, tmp_path):
        """close() drains the queues and snapshots: every acked rating
        must be present (and trust state identical) after reopening."""
        stream = make_stream(n=200)
        cluster = ClusterCoordinator(cluster_config(tmp_path, workers=2))
        for rating in stream:
            assert cluster.submit(rating).accepted
        cluster.flush()
        trust_before = cluster.trust_table()
        assert trust_before  # digests landed
        cluster.close()  # drains again; nothing new is pending

        reopened = ClusterCoordinator(cluster_config(tmp_path, workers=2))
        try:
            assert reopened.n_accepted == len(stream)
            stats = reopened.snapshot_stats()
            stored = sum(worker["n_ratings"] for worker in stats["workers"])
            rejected = sum(w["n_rejected"] for w in stats["workers"])
            assert stored + rejected == len(stream)
            assert rejected == 0  # monotone-time stream
            # close() flushed, so the reopened trust table includes
            # every pre-stop observation.
            assert reopened.trust_table() == trust_before
        finally:
            reopened.close()

    def test_coordinator_snapshot_size_is_flat_in_flushes(self, tmp_path):
        """The coordinator snapshot persists bounded trust state: four
        times the flushes over the same raters do not grow it."""
        stream = make_stream(n=1200)
        cluster = ClusterCoordinator(cluster_config(tmp_path, workers=1))
        try:
            for rating in stream[:300]:
                cluster.submit(rating)
            cluster.flush()
            early = cluster.snapshot().stat().st_size
            for rating in stream[300:]:
                cluster.submit(rating)
            cluster.flush()
            late = cluster.snapshot().stat().st_size
        finally:
            cluster.close()
        assert late < 1.1 * early

    def test_worker_resize_is_rejected(self, tmp_path):
        cluster = ClusterCoordinator(cluster_config(tmp_path, workers=2))
        for rating in make_stream(n=40):
            cluster.submit(rating)
        cluster.close()
        with pytest.raises(ConfigurationError, match="resizing"):
            ClusterCoordinator(cluster_config(tmp_path, workers=3))


@pytest.mark.slow
class TestWorkerCrashRecovery:
    def test_sigkilled_worker_replays_to_identical_state(self, tmp_path):
        """SIGKILL one worker mid-stream; the supervisor restarts it and
        watermark redelivery + digest dedup must land the cluster on the
        exact state of an uninterrupted run.

        Flushes are explicit (batch above stream length) so the digest
        sequence is deterministic and the comparison can be exact.
        """
        stream = make_stream(n=300)
        flush_points = {120, 240}
        kill_at = 160

        def run(wal_dir, kill=False):
            config = cluster_config(
                wal_dir, workers=2, batch_max_ratings=10_000
            )
            cluster = ClusterCoordinator(config)
            try:
                for position, rating in enumerate(stream):
                    cluster.submit(rating)
                    if kill and position == kill_at:
                        victim = cluster._handles[0]
                        os.kill(victim.process.pid, signal.SIGKILL)
                    if position + 1 in flush_points:
                        # flush() itself rides out the in-flight restart
                        cluster.flush()
                cluster.flush()
                scores = {pid: cluster.score(pid) for pid in range(6)}
                return {
                    "trust": cluster.trust_table(),
                    "suspicion": cluster.suspicion_table(),
                    "malicious": cluster.detected_malicious(),
                    "scores": scores,
                    "n_accepted": cluster.n_accepted,
                }
            finally:
                cluster.close()

        reference = run(tmp_path / "reference")
        killed = run(tmp_path / "killed", kill=True)
        assert killed == reference

    def test_lost_wal_tail_never_reuses_sequence_numbers(self, tmp_path):
        """A coordinator crash can lose acks inside the group-commit
        fsync window while the workers durably applied those entries.
        Reopening must pad the ingest WAL past the workers' watermark
        so a fresh submit cannot alias an already-applied sequence."""
        stream = make_stream(n=60)
        cluster = ClusterCoordinator(
            cluster_config(tmp_path, workers=2, wal_gc=False)
        )
        for rating in stream:
            cluster.submit(rating)
        cluster.flush()
        cluster.close()

        # Simulate the torn tail: drop the last 7 appends from the
        # coordinator's ingest WAL, as if they never left the
        # group-commit buffer.  The workers' own WALs still hold them.
        segment = sorted((tmp_path / "coordinator").glob("wal-*.jsonl"))[-1]
        lines = segment.read_text(encoding="utf-8").splitlines(keepends=True)
        segment.write_text("".join(lines[:-7]), encoding="utf-8")

        reopened = ClusterCoordinator(
            cluster_config(tmp_path, workers=2, wal_gc=False)
        )
        try:
            # Padded back past every worker's watermark (= 59).
            assert reopened.n_accepted == len(stream)
            extra = Rating(
                rating_id=len(stream),
                rater_id=0,
                product_id=0,
                value=0.5,
                time=10_000.0,
            )
            result = reopened.submit(extra)
            assert result.seq == len(stream)  # not a reused 53..59
            reopened.flush()
        finally:
            reopened.close()


# Put first on the spawned workers' PYTHONPATH: each worker engine logs
# its whole read mirror after every flush that sent a digest, and after
# each full-table install (the coordinator's ``welcome``), to a file of
# its own.
_MIRROR_HOOK = """
import os

_log = os.environ.get("REPRO_TEST_MIRROR_LOG")
if _log:
    import json
    from repro.service.engine import RatingEngine

    _path = f"{_log}.{os.getpid()}"
    _flush = RatingEngine._flush_locked
    _install = RatingEngine.install_trust_mirror

    def _record(engine, kind):
        origin = int(os.path.basename(engine.config.wal_dir).split("-")[1])
        row = [origin, kind, engine._n_trust_updates, engine.trust_table()]
        with open(_path, "a") as handle:
            handle.write(json.dumps(row) + "\\n")

    def _flush_locked(self):
        before = self._n_trust_updates
        _flush(self)
        if self._n_trust_updates != before:
            _record(self, "reply")

    def install_trust_mirror(self, table):
        _install(self, table)
        _record(self, "welcome")

    RatingEngine._flush_locked = _flush_locked
    RatingEngine.install_trust_mirror = install_trust_mirror
"""


def _logged_rows(path):
    """The rows one worker process logged (none if it never flushed)."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle]


@pytest.mark.slow
class TestTrustMirror:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example(workers=1, seed=5, n=120, kill_at=40, flush_at={70})
    @example(workers=2, seed=7, n=140, kill_at=30, flush_at={10, 90})
    @given(
        workers=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=60, max_value=160),
        kill_at=st.one_of(st.none(), st.integers(min_value=20, max_value=55)),
        flush_at=st.sets(st.integers(min_value=0, max_value=159), max_size=3),
    )
    def test_worker_mirror_equals_the_ledger_after_every_reply(
        self, workers, seed, n, kill_at, flush_at
    ):
        """Every worker merges the ledger's delta replies into its read
        mirror.  Right after each reply that mirror must equal the
        coordinator's whole table as it stood when the reply left, on
        1 and 2 workers, with a SIGKILLed worker restarted, welcomed
        and redelivered to.  Replies to the digests a restarted worker
        replays *before* its welcome only refresh a mirror the welcome
        then replaces, so they are checked on the coordinator side
        alone: merged in order with the welcomes, every origin's
        replies rebuild the table."""
        # Per origin, in order: ("welcome" | "reply", seq, sent, table);
        # a worker waits for each reply, so one origin's events never
        # interleave.
        events = {index: [] for index in range(workers)}
        seqs = {}
        apply, reply_locked, welcome = (
            TrustLedger.apply,
            TrustLedger._reply_locked,
            TrustLedger.welcome,
        )

        def recording_apply(self, digest, origin):
            seqs[origin] = int(digest["seq"])
            return apply(self, digest, origin)

        def recording_reply(self, origin, changed):
            sent = reply_locked(self, origin, changed)
            table = self.trust_manager.trust_table()  # lock held
            events[origin].append(("reply", seqs[origin], dict(sent), table))
            return sent

        def recording_welcome(self, origin):
            table = welcome(self, origin)
            events[origin].append(("welcome", None, table, table))
            return table

        stream = make_stream(n=n, seed=seed)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as mp:
            hook_dir = os.path.join(scratch, "hook")
            os.mkdir(hook_dir)
            with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
                handle.write(_MIRROR_HOOK)
            log = os.path.join(scratch, "mirror")
            mp.setenv(
                "PYTHONPATH",
                os.pathsep.join([hook_dir, os.path.join(repo_root, "src"), repo_root]),
            )
            mp.setenv("REPRO_TEST_MIRROR_LOG", log)
            mp.setattr(TrustLedger, "apply", recording_apply)
            mp.setattr(TrustLedger, "_reply_locked", recording_reply)
            mp.setattr(TrustLedger, "welcome", recording_welcome)

            cluster = ClusterCoordinator(
                cluster_config(os.path.join(scratch, "wal"), workers=workers)
            )
            pids = [[handle.process.pid] for handle in cluster._handles]
            try:
                for position, rating in enumerate(stream):
                    cluster.submit(rating)
                    if position == kill_at:
                        os.kill(cluster._handles[0].process.pid, signal.SIGKILL)
                    if position in flush_at:
                        cluster.flush()
                cluster.flush()
                for index, handle in enumerate(cluster._handles):
                    if handle.process.pid != pids[index][0]:
                        pids[index].append(handle.process.pid)
            finally:
                cluster.close()

            for origin, trail in events.items():
                mirror = None  # a new origin is owed the full table
                for kind, _, sent, table in trail:
                    if kind == "welcome" or mirror is None:
                        mirror = dict(sent)
                    else:
                        mirror.update(sent)
                    assert mirror == table

                cursor = 0
                for pid in pids[origin]:
                    welcomed = False
                    for index, kind, seq, logged in _logged_rows(f"{log}.{pid}"):
                        assert index == origin
                        welcomed = welcomed or kind == "welcome"
                        if not welcomed:
                            continue  # a replayed flush before the welcome
                        while trail[cursor][0] != kind or (
                            kind == "reply" and trail[cursor][1] != seq
                        ):
                            cursor += 1
                        mirror = {int(k): v for k, v in logged.items()}
                        assert mirror == trail[cursor][3], (origin, kind, seq)
                        cursor += 1
                assert cursor > 0


# Put first on the crashed cluster's PYTHONPATH: every process of it
# (coordinator and spawned worker) logs each fsync (inode, size) and
# each ``processed`` report, in order, to a file of its own.
_DURABILITY_HOOK = """
import os

_log = os.environ.get("REPRO_TEST_DURABILITY_LOG")
if _log:
    import json
    import multiprocessing.connection as mpc

    _path = f"{_log}.{os.getpid()}"
    _fsync = os.fsync
    _send_bytes = mpc._ConnectionBase.send_bytes

    def _record(line):
        with open(_path, "a") as handle:
            handle.write(line + "\\n")

    def fsync(fd):
        _fsync(fd)
        stat = os.fstat(fd)
        _record(f"fsync {stat.st_ino} {stat.st_size}")

    def send_bytes(self, buf, *args, **kwargs):
        if bytes(buf).startswith(b'{"type":"processed"'):
            _record(f"processed {json.loads(bytes(buf))['n']}")
        return _send_bytes(self, buf, *args, **kwargs)

    os.fsync = fsync
    mpc._ConnectionBase.send_bytes = send_bytes
"""

# The crashed cluster: acks a stream prefix, waits until the worker has
# reported all of it processed, then idles until the test kills it.
_CRASHED_CLUSTER = """
import sys, time
from repro.service.cluster import ClusterCoordinator
from tests.test_service_cluster import cluster_config, make_stream

wal_dir, n = sys.argv[1], int(sys.argv[2])
cluster = ClusterCoordinator(
    cluster_config(wal_dir, workers=1, wal_gc=False, cluster_ack_fsync_every=1)
)
stream = make_stream()
for rating in stream[:n]:
    cluster.submit(rating)
cluster.score(stream[n - 1].product_id)  # read-your-writes: all processed
print(cluster._handles[0].process.pid, cluster._sockdir, flush=True)
time.sleep(600)
"""


@pytest.mark.slow
class TestPowerLoss:
    def test_worker_power_loss_recovers_to_identical_state(self, tmp_path):
        """Group commit's loss window.  Kill a 1-worker cluster (no
        closing snapshot), then cut the worker's WAL back to its last
        flush marker -- what a power loss can leave once the worker
        fsyncs per ingest frame.  The reopened cluster must land on the
        state of an uninterrupted run, and every frame the worker
        reported processed must have been fsynced before the report.

        The coordinator fsyncs every ack here, so the test isolates the
        worker's window from the coordinator's own (documented)
        ``cluster_ack_fsync_every`` window.
        """
        stream = make_stream()
        config = dict(workers=1, wal_gc=False, cluster_ack_fsync_every=1)
        crash_at = 290  # flush markers every 25 ratings; 15 past the last

        def finish(cluster, ratings):
            for rating in ratings:
                cluster.submit(rating)
            cluster.flush()
            return {
                "trust": cluster.trust_table(),
                "suspicion": cluster.suspicion_table(),
                "malicious": cluster.detected_malicious(),
                "scores": {pid: cluster.score(pid) for pid in range(6)},
                "n_accepted": cluster.n_accepted,
            }

        reference_cluster = ClusterCoordinator(
            cluster_config(tmp_path / "reference", **config)
        )
        try:
            reference = finish(reference_cluster, stream)
        finally:
            reference_cluster.close()

        hook_dir = tmp_path / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_DURABILITY_HOOK)
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        wal_dir = tmp_path / "crashed"
        log = tmp_path / "durability"
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                [str(hook_dir), os.path.join(repo_root, "src"), repo_root]
            ),
            "REPRO_TEST_DURABILITY_LOG": str(log),
        }
        process = subprocess.Popen(
            [sys.executable, "-c", _CRASHED_CLUSTER, str(wal_dir), str(crash_at)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=repo_root,
            start_new_session=True,
        )
        try:
            ready = process.stdout.readline().split()
            assert len(ready) == 2, "crashed cluster never became ready"
        finally:
            os.killpg(process.pid, signal.SIGKILL)  # coordinator and worker
            process.wait()
            process.stdout.close()
        # The worker sat idle (everything processed), so the kill left
        # its WAL as it was at the report.
        worker_pid, sockdir = int(ready[0]), ready[1]
        for leftover in os.listdir(sockdir):
            os.unlink(os.path.join(sockdir, leftover))
        os.rmdir(sockdir)

        segment = sorted((wal_dir / "worker-000").glob("wal-*.jsonl"))[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        # Every processed report was preceded by an fsync covering the
        # rows of every entry it reports.
        ends, offset = [], 0
        for line in lines:
            offset += len(line)
            if b'"control"' not in line:
                ends.append(offset)
        assert len(ends) == crash_at
        events = (log.parent / f"{log.name}.{worker_pid}").read_text().split("\n")
        inode, synced, reports = segment.stat().st_ino, 0, 0
        for event in filter(None, events):
            kind, *fields = event.split()
            if kind == "fsync" and int(fields[0]) == inode:
                synced = int(fields[1])
            elif kind == "processed":
                reports += 1
                assert synced >= ends[int(fields[0]) - 1], event
        assert reports >= 1

        # The power loss: everything after the last flush marker is gone.
        last_flush = max(
            i for i, line in enumerate(lines) if b'"control":{"flush"' in line
        )
        assert len(lines) - last_flush - 1 == crash_at % 25
        segment.write_bytes(b"".join(lines[: last_flush + 1]))

        reopened = ClusterCoordinator(cluster_config(wal_dir, **config))
        try:
            assert finish(reopened, stream[crash_at:]) == reference
        finally:
            reopened.close()


# The killed coordinator: acks a stream prefix at the default ack fsync
# cadence, through one call per rating or one ``submit_many``, then
# idles until the test kills it.
_ACKED_CLUSTER = """
import sys, time
from repro.service.cluster import ClusterCoordinator
from tests.test_service_cluster import cluster_config, make_stream

wal_dir, n, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
cluster = ClusterCoordinator(cluster_config(wal_dir, workers=1, wal_gc=False))
ratings = make_stream()[:n]
if path == "submit_many":
    results = cluster.submit_many(ratings)
else:
    results = [cluster.submit(rating) for rating in ratings]
assert len(results) == n and all(result.accepted for result in results)
print(cluster._sockdir, flush=True)
time.sleep(600)
"""


@pytest.mark.slow
class TestCoordinatorProcessKill:
    @pytest.mark.parametrize("path", ["submit", "submit_many"])
    def test_sigkill_keeps_every_acked_row(self, tmp_path, path):
        """An ack hands its ingest-WAL row to the OS, so a coordinator
        SIGKILL keeps every acked rating, also the ones past the last
        ``cluster_ack_fsync_every`` (64) fsync.  Only a power loss can
        take those."""
        acked = 290  # 256 rows covered by an fsync, 34 past the last one
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        wal_dir = tmp_path / "killed"
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([os.path.join(repo_root, "src"), repo_root]),
        }
        process = subprocess.Popen(
            [sys.executable, "-c", _ACKED_CLUSTER, str(wal_dir), str(acked), path],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=repo_root,
            start_new_session=True,
        )
        try:
            sockdir = process.stdout.readline().strip()
            assert sockdir, "killed cluster never acked its ratings"
        finally:
            os.killpg(process.pid, signal.SIGKILL)  # coordinator and worker
            process.wait()
            process.stdout.close()
        for leftover in os.listdir(sockdir):
            os.unlink(os.path.join(sockdir, leftover))
        os.rmdir(sockdir)

        wal = WriteAheadLog(wal_dir / "coordinator")
        try:
            assert wal.n_entries == acked
        finally:
            wal.close()
        logged = [rating for _, rating in replay_wal(wal_dir / "coordinator")]
        assert logged == make_stream()[:acked]


@pytest.mark.slow
def test_both_tiers_describe_shared_families_identically(tmp_path):
    """The engine and the coordinator render the same # HELP / # TYPE
    lines for every family in the shared catalog."""

    def header_lines(text):
        return [
            line
            for line in text.splitlines()
            if line.startswith(("# HELP ", "# TYPE "))
            and line.split()[2] in SHARED_FAMILIES
        ]

    engine = RatingEngine(ServiceConfig(wal_dir=str(tmp_path / "engine")))
    cluster = ClusterCoordinator(cluster_config(tmp_path / "cluster", workers=1))
    try:
        engine_lines = header_lines(engine.metrics.render())
        cluster_lines = header_lines(cluster.render_metrics())
    finally:
        cluster.close()
        engine.close()
    assert len(engine_lines) == 2 * len(SHARED_FAMILIES)
    assert engine_lines == cluster_lines


# -- HTTP integration -------------------------------------------------------


@pytest.mark.slow
class TestClusterHTTP:
    @pytest.fixture()
    def cluster_server(self, tmp_path):
        cluster = ClusterCoordinator(cluster_config(tmp_path, workers=2))
        server, thread = start_background(cluster)
        yield cluster, f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()
        cluster.close()

    def test_post_ratings_returns_202_queued(self, cluster_server):
        _, base = cluster_server
        body = json.dumps(
            {"rater_id": 1, "product_id": 2, "value": 0.5, "time": 1.0}
        ).encode()
        request = urllib.request.Request(
            f"{base}/ratings", data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 202
            payload = json.loads(response.read())
        assert payload["accepted"] is True
        assert payload["queued"] is True
        assert payload["seq"] == 0

    def test_metrics_exposes_worker_gauges(self, cluster_server):
        cluster, base = cluster_server
        cluster.submit(
            Rating(rating_id=1, rater_id=1, product_id=1, value=0.5, time=1.0)
        )
        with urllib.request.urlopen(f"{base}/metrics") as response:
            text = response.read().decode()
        assert 'repro_worker_up{worker="0"} 1' in text
        assert 'repro_worker_up{worker="1"} 1' in text
        assert 'repro_ingest_queue_depth{worker="0"}' in text
        assert "repro_ingest_latency_seconds" in text
        assert "repro_ratings_accepted_total 1" in text

    def test_score_after_ack_sees_the_rating(self, cluster_server):
        cluster, base = cluster_server
        cluster.submit(
            Rating(rating_id=2, rater_id=3, product_id=7, value=0.25, time=1.0)
        )
        with urllib.request.urlopen(f"{base}/products/7/score") as response:
            assert response.status == 200
            payload = json.loads(response.read())
        assert payload["score"] == pytest.approx(0.25)


@pytest.mark.slow
def test_serve_sigterm_drains_cluster(tmp_path):
    """`repro serve --workers N` + SIGTERM: the drain-then-exit path
    must leave every acked rating durably in the cluster."""
    wal_dir = tmp_path / "wal"
    port = _free_port()
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--workers",
            "2",
            "--wal-dir",
            str(wal_dir),
            "--port",
            str(port),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        base = f"http://127.0.0.1:{port}"
        _wait_healthy(base, process)
        accepted = 0
        for i in range(50):
            body = json.dumps(
                {"rater_id": i % 7, "product_id": i % 5, "value": 0.5, "time": float(i)}
            ).encode()
            request = urllib.request.Request(
                f"{base}/ratings", data=body, method="POST"
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 202
                accepted += 1
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, output.decode()
        assert b"final snapshot" in output
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    reopened = ClusterCoordinator(cluster_config(wal_dir, workers=2))
    try:
        assert reopened.n_accepted == accepted
        stats = reopened.snapshot_stats()
        stored = sum(worker["n_ratings"] for worker in stats["workers"])
        assert stored + sum(w["n_rejected"] for w in stats["workers"]) == accepted
    finally:
        reopened.close()


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(base, process, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            output = process.stdout.read().decode()
            raise AssertionError(f"serve exited early:\n{output}")
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=1):
                return
        except OSError:
            time.sleep(0.1)
    raise AssertionError("service never became healthy")
