"""Tests for the streaming rating engine."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.detectors.online import OnlineARDetector
from repro.errors import ConfigurationError, UnknownProductError
from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig

BASE = dict(
    batch_max_ratings=8,
    detector_window=12,
    detector_order=2,
    detector_stride=3,
    ensemble_thresholds=(0.2,),
)


def make_stream(n, n_products=3, n_raters=10, seed=0, noise=0.08):
    """Smooth-but-noisy ratings across products: some windows alarm."""
    rng = np.random.default_rng(seed)
    ratings = []
    for i in range(n):
        value = np.clip(0.6 + 0.25 * math.sin(i / 7.0) + rng.normal(0, noise), 0, 1)
        ratings.append(
            Rating(
                rating_id=i,
                rater_id=int(rng.integers(0, n_raters)),
                product_id=i % n_products,
                value=round(float(value), 3),
                time=float(i),
            )
        )
    return ratings


class TestConfig:
    def test_invalid_shards(self):
        # One partition per engine; processes are the only sharding.
        for n_shards in (0, 2, 4):
            with pytest.raises(ConfigurationError, match="cluster_workers"):
                ServiceConfig(n_shards=n_shards)
        assert ServiceConfig(n_shards=1) == ServiceConfig()

    def test_invalid_batch(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(batch_max_ratings=0)

    def test_invalid_detector_params_fail_fast(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(detector_window=4, detector_order=4)

    def test_roundtrip(self):
        config = ServiceConfig(detector_stride=2, wal_dir="/tmp/x")
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        config = ServiceConfig()
        data = config.to_dict()
        data["future_knob"] = 42
        # Knobs that older versions wrote into snapshots.
        data.update(store_hot_window=8, ensemble_periods=None, cluster_batch_max=64)
        assert ServiceConfig.from_dict(data) == config


class TestIngest:
    def test_accepts_and_counts(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        results = engine.submit_many(make_stream(50))
        assert all(r.accepted for r in results)
        assert [r.seq for r in results] == list(range(50))
        assert engine.n_accepted == 50

    def test_rejects_out_of_order_per_product(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        engine.submit(Rating(0, 1, 0, 0.5, time=5.0))
        result = engine.submit(Rating(1, 2, 0, 0.5, time=4.0))
        assert not result.accepted
        assert "out-of-order" in result.reason
        # Other products are independent timelines.
        assert engine.submit(Rating(2, 2, 1, 0.5, time=4.0)).accepted
        assert engine.snapshot_stats()["n_rejected"] == 1

    def test_equal_timestamps_accepted(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        engine.submit(Rating(0, 1, 0, 0.5, time=5.0))
        assert engine.submit(Rating(1, 2, 0, 0.6, time=5.0)).accepted

    def test_auto_registration(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        engine.submit(Rating(0, 123, 456, 0.5, time=0.0))
        assert engine.has_product(456)
        assert engine.trust(123) == 0.5  # prior until first flush


class TestQueries:
    def test_unknown_product_raises(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        with pytest.raises(UnknownProductError):
            engine.score(999)

    def test_score_is_trust_weighted(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        engine.submit_many(make_stream(120, n_products=1))
        engine.flush()
        # Recompute by hand from the engine's own trust table.
        stream = make_stream(120, n_products=1)
        values = [r.value for r in stream]
        trusts = [engine.trust(r.rater_id) for r in stream]
        expected = engine.aggregator.aggregate(values, trusts)
        assert engine.score(0) == pytest.approx(expected)

    def test_trust_prior_for_unknown_rater(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        assert engine.trust(424242) == 0.5

    def test_snapshot_stats_keys(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        engine.submit_many(make_stream(40))
        stats = engine.snapshot_stats()
        for key in (
            "uptime_seconds",
            "n_accepted",
            "n_rejected",
            "n_products",
            "n_raters",
            "ar_evaluations",
            "windows_flagged",
            "trust_updates",
            "ratings_per_second",
            "n_ratings",
        ):
            assert key in stats
        assert stats["n_accepted"] == 40
        assert stats["n_ratings"] == 40


class TestBatching:
    def test_count_flush_cadence(self):
        # A flush every batch_max_ratings.
        engine = RatingEngine(ServiceConfig(**{**BASE, "batch_max_ratings": 10}))
        engine.submit_many(make_stream(35, n_products=1))
        assert engine.snapshot_stats()["trust_updates"] == 3
        engine.flush()
        assert engine.snapshot_stats()["trust_updates"] == 4

    def test_time_flush_deadline(self):
        # A zero-second deadline flushes on every submit.
        config = ServiceConfig(
            **{**BASE, "batch_max_ratings": 10_000, "batch_max_seconds": 0.0}
        )
        engine = RatingEngine(config)
        engine.submit_many(make_stream(5, n_products=1))
        assert engine.snapshot_stats()["trust_updates"] == 5

    def test_flush_is_idempotent_when_empty(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        engine.flush()
        engine.flush()
        assert engine.snapshot_stats()["trust_updates"] == 0


class TestSuspicionEquivalence:
    def test_matches_online_detector_accounting(self):
        """Engine charging == OnlineARDetector.suspicious_raters.

        Single product, no intermediate trust flushes:
        after the final flush each rater's failure evidence must be
        ``b * C_i`` with ``C_i`` the detector's own accumulated
        suspicion for an identical stream.
        """
        stream = make_stream(150, n_products=1, noise=0.05, seed=3)
        config = ServiceConfig(**{**BASE, "batch_max_ratings": 10_000})
        engine = RatingEngine(config)
        engine.submit_many(stream)

        reference = OnlineARDetector(
            order=config.detector_order,
            threshold=config.source_thresholds["ar"],
            window_size=config.detector_window,
            stride=config.detector_stride,
            method=config.detector_method,
            scale=config.detector_scale,
        )
        reference.observe_many(stream)
        expected = reference.suspicious_raters()
        assert expected, "test stream must trigger alarms"

        engine.flush()
        for rater_id, suspicion in expected.items():
            record = engine.trust_manager.record(rater_id)
            assert record.failures == pytest.approx(
                config.trust_badness_weight * suspicion
            )
        # Raters never charged carry no failure evidence.
        for rater_id in engine.trust_manager.rater_ids:
            if rater_id not in expected:
                assert engine.trust_manager.record(rater_id).failures == 0.0


class TestSharding:
    def test_concurrent_submissions(self):
        """Parallel writers over disjoint products never corrupt state."""
        engine = RatingEngine(ServiceConfig(**BASE))
        n_threads, per_thread = 4, 100
        errors = []

        def worker(product_id: int) -> None:
            try:
                for i in range(per_thread):
                    result = engine.submit(
                        Rating(
                            rating_id=product_id * per_thread + i,
                            rater_id=i % 7,
                            product_id=product_id,
                            value=0.5 + 0.3 * math.sin(i / 5.0),
                            time=float(i),
                        )
                    )
                    assert result.accepted
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(pid,)) for pid in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert engine.n_accepted == n_threads * per_thread
        engine.flush()
        stats = engine.snapshot_stats()
        assert stats["n_products"] == n_threads
        for trust in engine.trust_table().values():
            assert 0.0 <= trust <= 1.0


class TestScoreCache:
    def _metric(self, engine, name):
        return engine.metrics.counter(name).value

    def test_cached_score_equals_recompute(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        for rating in make_stream(300):
            engine.submit(rating)
        for pid in range(3):
            cached = engine.score(pid)
            assert cached == pytest.approx(engine._score_uncached(pid), abs=1e-12)
            # Second read is a hit and must not move the value.
            assert engine.score(pid) == pytest.approx(cached, abs=1e-15)

    def test_hit_and_miss_metrics(self):
        # Large batch so no trust flush invalidates between reads.
        engine = RatingEngine(ServiceConfig(**{**BASE, "batch_max_ratings": 10_000}))
        for rating in make_stream(60):
            engine.submit(rating)
        engine.score(0)
        assert self._metric(engine, "repro_score_cache_misses_total") == 1
        assert self._metric(engine, "repro_score_cache_hits_total") == 0
        engine.score(0)
        engine.score(0)
        assert self._metric(engine, "repro_score_cache_hits_total") == 2

    def test_trust_flush_invalidates(self):
        engine = RatingEngine(ServiceConfig(**{**BASE, "batch_max_ratings": 10_000}))
        for rating in make_stream(60):
            engine.submit(rating)
        engine.score(0)
        engine.flush()  # trust update -> new epoch
        engine.score(0)
        assert self._metric(engine, "repro_score_cache_misses_total") == 2
        assert engine.score(0) == pytest.approx(
            engine._score_uncached(0), abs=1e-12
        )

    def test_ingest_folds_into_current_entry(self):
        engine = RatingEngine(ServiceConfig(**{**BASE, "batch_max_ratings": 10_000}))
        ratings = make_stream(120)
        for rating in ratings[:60]:
            engine.submit(rating)
        engine.score(0)  # populate the entry
        for rating in ratings[60:]:
            engine.submit(rating)
        # The entry absorbed the new ratings incrementally: still a hit,
        # still equal to a full recompute.
        misses_before = self._metric(engine, "repro_score_cache_misses_total")
        assert engine.score(0) == pytest.approx(engine._score_uncached(0), abs=1e-12)
        assert self._metric(engine, "repro_score_cache_misses_total") == misses_before

    def test_unknown_product_still_raises(self):
        engine = RatingEngine(ServiceConfig(**BASE))
        with pytest.raises(UnknownProductError):
            engine.score(999)

    def test_scores_correct_across_many_flushes(self):
        # Flush every 8 ratings: entries go stale constantly; every read
        # must still agree with the recompute path.
        engine = RatingEngine(ServiceConfig(**BASE))
        for i, rating in enumerate(make_stream(240)):
            engine.submit(rating)
            if i % 17 == 0 and engine.has_product(rating.product_id):
                pid = rating.product_id
                assert engine.score(pid) == pytest.approx(
                    engine._score_uncached(pid), abs=1e-12
                )
