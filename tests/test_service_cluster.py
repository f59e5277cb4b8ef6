"""Tests for the multi-process sharded serving tier.

The expensive guarantees are checked end to end against real worker
processes: a single-worker cluster is bit-for-bit equivalent to the
in-process engine, a graceful stop never loses an acked rating, and a
SIGKILL'd worker is restarted and replayed back to the exact state of
an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UnknownProductError
from repro.ratings.models import Rating
from repro.service.cluster import ClusterCoordinator, ConsistentHashRing
from repro.service.cluster import coordinator as coordinator_module
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


def _ensemble_view(evictions):
    return {
        "combiner": "weighted_mean",
        "sources": {
            "ar": {"weight": 1.0, "threshold": 0.22, "period": 1, "n_evictions": evictions}
        },
    }


def test_merge_ensembles_leaves_each_worker_view_alone():
    coordinator = SimpleNamespace(config=ServiceConfig())
    first, second = _ensemble_view(2), _ensemble_view(3)
    merged = ClusterCoordinator._merge_ensembles(coordinator, [first, second])
    assert merged == _ensemble_view(5)
    assert first == _ensemble_view(2)
    assert second == _ensemble_view(3)


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
# its whole read mirror after every trust reply it merges, with that
# reply's digest seq, and after each full-table install (the
# coordinator's ``welcome``), to a file of its own.
_MIRROR_HOOK = """
import os

_log = os.environ.get("REPRO_TEST_MIRROR_LOG")
if _log:
    import collections
    import json
    from repro.service.cluster.worker import _WorkerRuntime
    from repro.service.engine import RatingEngine

    _path = f"{_log}.{os.getpid()}"
    _send = _WorkerRuntime.trust_delegate
    _merge = RatingEngine.merge_trust
    _install = RatingEngine.install_trust_mirror
    # Seqs of the digests sent whose reply is not merged yet; replies
    # are merged in digest order.
    _unmerged = collections.deque()

    def _record(engine, kind, seq):
        origin = int(os.path.basename(engine.config.wal_dir).split("-")[1])
        row = [origin, kind, seq, engine.trust_table()]
        with open(_path, "a") as handle:
            handle.write(json.dumps(row) + "\\n")

    def trust_delegate(self, digest):
        _unmerged.append(int(digest["seq"]))
        return _send(self, digest)

    def merge_trust(self, changed):
        _merge(self, changed)
        _record(self, "reply", _unmerged.popleft())

    def install_trust_mirror(self, table):
        _install(self, table)
        _record(self, "welcome", None)

    _WorkerRuntime.trust_delegate = trust_delegate
    RatingEngine.merge_trust = merge_trust
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
        # one reader thread applies an origin's digests in the order the
        # worker sent them, so one origin's events never interleave.
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

                # Each worker process of the origin got one welcome, in
                # order; one SIGKILLed early may not have logged its own.
                welcomes = [i for i, event in enumerate(trail) if event[0] == "welcome"]
                assert len(welcomes) == len(pids[origin])
                checked = 0
                for pid, cursor in zip(pids[origin], welcomes):
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
                        checked += 1
                assert checked > 0


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
class TestIngestFrames:
    def test_frames_leave_in_wal_order(self, tmp_path, monkeypatch):
        """Eight threads submit at once to two workers.  Each worker's
        ingest frames must carry strictly increasing ``g`` (its
        watermark is the last ``g`` it applied, so a frame out of order
        would make redelivery re-apply entries) and exactly the acked
        seqs it owns."""
        sent = []  # (conn, [g, ...]) in wire order: recorded under send_lock

        def spy(conn, msg):
            if msg["type"] == "ingest":
                sent.append((conn, [g for g, _ in msg["entries"]]))
            send_msg(conn, msg)

        monkeypatch.setattr(coordinator_module, "send_msg", spy)
        stream = make_stream(n=480, n_products=12)
        parts = [stream[i::8] for i in range(8)]
        acked = []  # (seq, product_id)
        barrier = threading.Barrier(len(parts))
        cluster = ClusterCoordinator(cluster_config(tmp_path, workers=2))

        def feed(index):
            ratings = parts[index]
            barrier.wait()
            if index % 2:
                results = [cluster.submit(rating) for rating in ratings]
            else:  # multi-entry frames, one per owning worker per chunk
                results = []
                for start in range(0, len(ratings), 20):
                    results += cluster.submit_many(ratings[start : start + 20])
            acked.extend(
                (result.seq, rating.product_id)
                for result, rating in zip(results, ratings)
            )

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the submitting threads
        try:
            threads = [
                threading.Thread(target=feed, args=(i,)) for i in range(len(parts))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
            cluster.close()
        assert sorted(seq for seq, _ in acked) == list(range(len(stream)))
        for handle in cluster._handles:
            gs = [g for conn, frame in sent if conn is handle.conn for g in frame]
            assert all(a < b for a, b in zip(gs, gs[1:])), handle.index
            owned = {
                seq
                for seq, product_id in acked
                if cluster.ring.owner(product_id) == handle.index
            }
            assert owned and set(gs) == owned


@pytest.mark.slow
class TestBackpressure:
    def test_full_window_blocks_and_survives_a_worker_kill(self, tmp_path):
        """With ``cluster_queue_depth=8`` and the worker SIGSTOPped, a
        submit blocks once 8 entries are in flight.  SIGKILLing the
        worker must release it (no deadlock with the restart), and
        redelivery must bring the restarted worker every acked entry:
        after ``flush()`` the cluster equals an uninterrupted run."""
        stream = make_stream(n=120)
        prefix, depth = 60, 8

        def run(wal_dir, stall=False):
            cluster = ClusterCoordinator(
                cluster_config(
                    wal_dir,
                    workers=1,
                    batch_max_ratings=10_000,
                    cluster_queue_depth=depth,
                )
            )
            handle = cluster._handles[0]
            pid = handle.process.pid
            acked = []

            def feed():
                for rating in stream[prefix:]:
                    acked.append(cluster.submit(rating).seq)

            feeder = threading.Thread(target=feed, daemon=True)
            try:
                for rating in stream[:prefix]:
                    cluster.submit(rating)
                cluster.flush()  # every sent entry is processed
                if stall:
                    os.kill(pid, signal.SIGSTOP)
                feeder.start()
                if stall:
                    deadline = time.monotonic() + 30
                    while len(acked) < depth and time.monotonic() < deadline:
                        time.sleep(0.01)
                    time.sleep(0.3)
                    assert len(acked) == depth and feeder.is_alive()
                    assert handle.sent - handle.processed == depth
                    # The blocked rating is logged, but not acked.
                    assert cluster.n_accepted == prefix + depth + 1
                    os.kill(pid, signal.SIGKILL)
                feeder.join(60)
                assert not feeder.is_alive(), "blocked submit never returned"
                assert acked == list(range(prefix, len(stream)))
                cluster.flush()
                if stall:
                    assert handle.process.pid != pid  # restarted
                worker = cluster.snapshot_stats()["workers"][0]
                assert worker["n_ratings"] + worker["n_rejected"] == len(stream)
                return {
                    "trust": cluster.trust_table(),
                    "suspicion": cluster.suspicion_table(),
                    "malicious": cluster.detected_malicious(),
                    "scores": {p: cluster.score(p) for p in range(6)},
                    "n_accepted": cluster.n_accepted,
                }
            finally:
                if stall and handle.process.pid == pid:  # never leave it stopped
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                if feeder.is_alive():  # deadlocked: close() would hang too
                    cluster._teardown_transport()
                else:
                    cluster.close()

        reference = run(tmp_path / "reference")
        assert run(tmp_path / "stalled", stall=True) == reference


def _rating(rating_id, rater_id, product_id, value, time):
    return Rating(
        rating_id=rating_id,
        rater_id=rater_id,
        product_id=product_id,
        value=value,
        time=time,
    )


def _answer(read, product_id):
    """``read(product_id)``, with an unknown product as a value."""
    try:
        return read(product_id)
    except UnknownProductError:
        return "unknown"


def _fresh_score(cluster, product_id):
    """The owning worker's answer now, bypassing the score view."""
    handle = cluster._owner_handle(product_id)
    return _answer(
        lambda p: cluster._rpc(handle, "score", product_id=p)["value"], product_id
    )


def _wait_stopped(pid, timeout=10.0):
    """Block until ``pid`` is in the stopped state after a SIGSTOP."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as stat:
            if stat.read().rsplit(")", 1)[1].split()[0] == "T":
                return
        time.sleep(0.005)
    raise AssertionError(f"process {pid} did not stop")


_VALUES = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0])
_VIEW_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 7),
            st.integers(0, 5),
            _VALUES,
        ),
        st.tuples(
            st.just("submit_many"),
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 5), _VALUES),
                min_size=1,
                max_size=12,
            ),
        ),
        st.tuples(st.just("flush")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("read"), st.integers(0, 7)),
        st.tuples(st.just("read"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.slow
class TestScoreView:
    """The coordinator answers repeat score reads from its per-worker
    view; every answer must still be the worker's own, now."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # Rater 0 rates five products and rater 1 one, so the sixth rating's
    # cadence flush moves product 0's score (0.5 -> 0.318) without an
    # ingest to it: only the digest's drop, read after the window wait,
    # keeps the next read right.
    @example(
        workers=1,
        ops=[
            ("submit_many", [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 0.2), (2, 0, 0.5), (3, 0, 0.7)]),
            ("read", 0),
            ("submit", 4, 0, 0.9),
            ("read", 0),
            ("read", 0),
            ("flush",),
            ("read", 0),
            ("read", 9),
        ],
    )
    @example(
        workers=2,
        ops=[
            ("submit_many", [(0, 0, 0.0), (0, 0, 0.1), (0, 1, 1.0), (5, 2, 0.3), (6, 3, 0.4)]),
            ("read", 0),
            ("read", 5),
            ("flush",),
            ("read", 0),
            ("read", 5),
            ("submit", 0, 3, 1.0),
            ("read", 0),
            ("read", 0),
            ("snapshot",),
            ("read", 6),
            ("read", 9),
        ],
    )
    @given(workers=st.sampled_from([1, 2]), ops=_VIEW_OPS)
    def test_every_read_equals_a_fresh_rpc(self, workers, ops):
        """Random submits, batches, flushes (explicit and every 6
        ratings), snapshots and reads: after each read, ``score(p)``
        equals the owning worker's answer to a cache-bypassing rpc, and
        on one worker also the in-process engine's on the same ops."""
        reference = (
            RatingEngine(
                ServiceConfig(batch_max_ratings=6, detector_window=16, detector_stride=8)
            )
            if workers == 1
            else None
        )
        ids = itertools.count()
        with tempfile.TemporaryDirectory() as scratch:
            cluster = ClusterCoordinator(
                cluster_config(scratch, workers=workers, batch_max_ratings=6)
            )
            engines = [cluster] + ([reference] if reference is not None else [])
            try:
                for op in ops:
                    kind = op[0]
                    if kind in ("submit", "submit_many"):
                        rows = [op[1:]] if kind == "submit" else op[1]
                        batch = []
                        for product_id, rater_id, value in rows:
                            n = next(ids)
                            batch.append(_rating(n, rater_id, product_id, value, n))
                        for engine in engines:
                            if kind == "submit":
                                engine.submit(batch[0])
                            else:
                                engine.submit_many(batch)
                    elif kind == "flush":
                        for engine in engines:
                            engine.flush()
                    elif kind == "snapshot":
                        cluster.snapshot()  # its phase 1 flushes every worker
                        if reference is not None:
                            reference.flush()
                    else:
                        product_id = op[1]
                        served = _answer(cluster.score, product_id)
                        assert served == _fresh_score(cluster, product_id)
                        if reference is not None:
                            assert served == _answer(reference.score, product_id)
            finally:
                cluster.close()

    def test_rpc_overtaken_by_an_ack_is_not_kept(self, tmp_path):
        """A score rpc goes out, the worker stops, a POST to the same
        product is acked, and the worker resumes: the rpc's answer
        predates the rating, so it must not be kept, and the next read
        must include the rating."""
        cluster = ClusterCoordinator(
            cluster_config(tmp_path, workers=1, batch_max_ratings=10_000)
        )
        server, _ = start_background(cluster)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        handle = cluster._handles[0]
        pid = handle.process.pid
        product_id = 3
        try:
            cluster.submit(_rating(0, 1, product_id, 0.2, 1.0))
            cluster._wait_applied(handle)  # the read below waits for nothing
            os.kill(pid, signal.SIGSTOP)
            _wait_stopped(pid)
            early = {}
            reader = threading.Thread(
                target=lambda: early.update(value=cluster.score(product_id))
            )
            reader.start()
            deadline = time.monotonic() + 10
            while not cluster._rpcs and time.monotonic() < deadline:
                time.sleep(0.001)
            assert cluster._rpcs, "the score rpc never left"
            body = json.dumps(
                {"rater_id": 2, "product_id": product_id, "value": 0.8, "time": 2.0}
            ).encode()
            request = urllib.request.Request(f"{base}/ratings", data=body, method="POST")
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202
            os.kill(pid, signal.SIGCONT)
            reader.join(30)
            assert not reader.is_alive()
            assert early["value"] == 0.2  # answered before the rating arrived
            assert cluster.score(product_id) == pytest.approx(0.5)
            assert cluster.score(product_id) == _fresh_score(cluster, product_id)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGCONT)
            server.shutdown()
            server.server_close()
            cluster.close()

    def test_drop_follows_the_frame_send(self, tmp_path):
        """A read that passed its window wait before a submit took the
        frame's credit, and looks the product up while the frame waits
        to be sent, must not leave a pre-rating answer in the view."""
        cluster = ClusterCoordinator(
            cluster_config(tmp_path, workers=1, batch_max_ratings=10_000)
        )
        handle = cluster._handles[0]
        product_id = 3
        at_send, release = threading.Event(), threading.Event()
        send_lock = handle.send_lock

        class GatedLock:
            """The submitting thread stops at the frame's send lock."""

            def __enter__(self):
                if threading.current_thread().name == "submitter":
                    at_send.set()
                    release.wait(30)
                send_lock.acquire()

            def __exit__(self, *exc_info):
                send_lock.release()

        try:
            cluster.submit(_rating(0, 1, product_id, 0.2, 1.0))
            assert cluster.score(product_id) == 0.2
            handle.send_lock = GatedLock()
            submitter = threading.Thread(
                target=cluster.submit,
                args=(_rating(1, 2, product_id, 0.8, 2.0),),
                name="submitter",
            )
            submitter.start()
            assert at_send.wait(30)
            cluster._wait_applied = lambda handle, timeout=30.0: None
            try:
                # Not acked yet: the old answer is still the right one.
                assert cluster.score(product_id) == 0.2
            finally:
                del cluster._wait_applied
            release.set()
            submitter.join(30)
            assert not submitter.is_alive()
            assert cluster.score(product_id) == pytest.approx(0.5)
            assert cluster.score(product_id) == _fresh_score(cluster, product_id)
        finally:
            release.set()
            handle.send_lock = send_lock
            cluster.close()

    def test_restarted_worker_answers_from_its_new_state(self, tmp_path):
        """Worker 0's mirror lags worker 1's last digest until its next
        reply; a SIGKILL and restart welcomes it with the full table.
        Every read after the restart must equal a fresh rpc, and some
        must differ from the answers the view held before the kill."""
        cluster = ClusterCoordinator(
            cluster_config(tmp_path, workers=2, batch_max_ratings=10_000)
        )
        handle = cluster._handles[0]
        pid = handle.process.pid
        try:
            cluster.submit_many(make_stream(n=200, n_products=8))
            cluster.flush()  # worker 0 first, then worker 1's changes
            cluster.snapshot()  # a recovery replays no digest
            owned = [p for p in range(8) if cluster.ring.owner(p) == 0]
            assert owned
            before = {p: cluster.score(p) for p in owned}
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 120
            while not (handle.up and handle.process.pid != pid):
                assert time.monotonic() < deadline, "worker 0 never restarted"
                time.sleep(0.01)
            after = {p: cluster.score(p) for p in owned}
            assert after == {p: _fresh_score(cluster, p) for p in owned}
            assert after != before
        finally:
            cluster.close()


class TestDeferredReplies:
    """A worker sends each trust digest without waiting for its reply
    and merges the replies, in order, before it answers a read."""

    def test_read_waits_for_a_held_reply(self, tmp_path):
        """The coordinator holds the reply to a cadence flush's digest
        after the worker reported the flushing frame processed.  A
        score read issued meanwhile must wait for the reply and answer
        with the merged trusts, as the in-process engine does."""
        cluster = ClusterCoordinator(
            cluster_config(tmp_path, workers=1, batch_max_ratings=6)
        )
        reference = RatingEngine(
            ServiceConfig(batch_max_ratings=6, detector_window=16, detector_stride=8)
        )
        # The sixth rating's flush moves product 0 from 0.5 to 0.318.
        rows = [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 0.2), (2, 0, 0.5), (3, 0, 0.7), (4, 0, 0.9)]
        batch = [
            _rating(n, rater_id, product_id, value, n)
            for n, (product_id, rater_id, value) in enumerate(rows)
        ]
        handle = cluster._handles[0]
        held, release = threading.Event(), threading.Event()
        apply_digest = cluster._apply_digest

        def holding_apply(handle, digest, conn):
            """Apply and answer the digest later; the reader moves on."""

            def later():
                release.wait(30)
                apply_digest(handle, digest, conn)

            threading.Thread(target=later, daemon=True).start()
            held.set()

        cluster._apply_digest = holding_apply
        try:
            reference.submit_many(batch)
            cluster.submit_many(batch)
            assert held.wait(30)
            assert cluster._caught_up(handle, 30)  # processed came first
            read = {}
            reader = threading.Thread(
                target=lambda: read.update(score=cluster.score(0))
            )
            reader.start()
            deadline = time.monotonic() + 10
            while not cluster._rpcs and time.monotonic() < deadline:
                time.sleep(0.001)
            assert cluster._rpcs, "the score rpc never left"
            time.sleep(0.3)  # time enough for an idle worker to answer
            assert reader.is_alive(), "the read did not wait for the reply"
            release.set()
            reader.join(30)
            assert not reader.is_alive()
            assert read["score"] == reference.score(0) != 0.5
            assert cluster.trust(0) == reference.trust(0) != 0.5
            assert cluster.trust_table() == reference.trust_table()
            assert cluster.score(0) == _fresh_score(cluster, 0) == read["score"]
        finally:
            release.set()
            del cluster._apply_digest
            cluster.close()
            reference.close()


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

    def test_metrics_count_every_score_read_once(self, cluster_server):
        """``/metrics`` shows the coordinator's score-view hits and
        misses, and every ``score()`` call is exactly one of them (an
        unknown product is a miss: the worker answers it)."""
        cluster, base = cluster_server
        for n in range(6):
            cluster.submit(_rating(n, n, n % 3, 0.5, float(n)))
        reads = [0, 1, 0, 0, 2, 1, 2, 42]
        for product_id in reads:
            try:
                with urllib.request.urlopen(f"{base}/products/{product_id}/score"):
                    pass
            except urllib.error.HTTPError as error:
                assert (product_id, error.code) == (42, 404)
        with urllib.request.urlopen(f"{base}/metrics") as response:
            text = response.read().decode()
        samples = {
            name: float(value)
            for name, value in (
                line.split() for line in text.splitlines() if line[:1] != "#"
            )
        }
        hits = samples["repro_score_cache_hits_total"]
        misses = samples["repro_score_cache_misses_total"]
        assert hits + misses == len(reads)
        assert (hits, misses) == (4, 4)

    def test_storage_describes_the_wal_as_the_engine_does(
        self, cluster_server, tmp_path
    ):
        """``/storage`` has the same ``wal`` keys in both modes."""
        cluster, base = cluster_server
        cluster.snapshot()
        with urllib.request.urlopen(f"{base}/storage") as response:
            wal = json.loads(response.read())["wal"]
        engine = RatingEngine(ServiceConfig(wal_dir=str(tmp_path / "engine")))
        try:
            assert list(wal) == list(engine.storage_stats()["wal"])
        finally:
            engine.close()
        assert wal["n_snapshots"] == 1
        assert wal["directory"] == str(tmp_path / "coordinator")

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
