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
import time
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.ratings.models import Rating
from repro.service.cluster import ClusterCoordinator, ConsistentHashRing
from repro.service.cluster.framing import recv_msg, send_msg
from repro.service.config import ServiceConfig
from repro.service.engine import RatingEngine
from repro.service.http import start_background
from repro.service.metrics import SHARED_FAMILIES, MetricsRegistry


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
