"""Tests for the integrated Fig. 1 system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import TrustEnhancedRatingSystem
from repro.detectors.ar_detector import ARModelErrorDetector
from repro.errors import EmptyWindowError
from repro.filters.robust import ZScoreFilter
from repro.aggregation.methods import SimpleAverage
from repro.ratings.models import Product, RaterClass, RaterProfile, Rating
from repro.signal.windows import CountWindower
from tests.conftest import make_rating


def build_system(**kwargs) -> TrustEnhancedRatingSystem:
    system = TrustEnhancedRatingSystem(**kwargs)
    system.register_product(Product(product_id=0, quality=0.7))
    for rid in range(200):
        system.register_rater(
            RaterProfile(rater_id=rid, rater_class=RaterClass.RELIABLE)
        )
    return system


def honest_ratings(rng, n=60, start=0.0, span=10.0, rid_start=0):
    times = np.sort(rng.uniform(start, start + span, size=n))
    return [
        make_rating(
            rid_start + i,
            float(np.clip(np.round(rng.normal(0.7, 0.2), 1), 0, 1)),
            float(t),
            rater_id=rid_start + i,
        )
        for i, t in enumerate(times)
    ]


class TestIngestAndProcess:
    def test_ingest_counts(self, rng):
        system = build_system()
        assert system.ingest(honest_ratings(rng, n=10)) == 10
        assert system.store.n_ratings == 10

    def test_process_interval_consumes_pending(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=30))
        report = system.process_interval(0.0, 10.0)
        assert report.n_ratings == 30
        # Second processing of the same span finds nothing new.
        report2 = system.process_interval(0.0, 10.0)
        assert report2.n_ratings == 0

    def test_interval_boundaries_respected(self, rng):
        system = build_system()
        early = honest_ratings(rng, n=10, start=0.0, span=5.0)
        late = honest_ratings(rng, n=10, start=10.0, span=5.0, rid_start=50)
        system.ingest(early + late)
        report = system.process_interval(0.0, 10.0)
        assert report.n_ratings == 10
        report2 = system.process_interval(10.0, 20.0)
        assert report2.n_ratings == 10

    def test_invalid_interval_rejected(self):
        with pytest.raises(EmptyWindowError):
            build_system().process_interval(5.0, 5.0)

    def test_trust_updated_each_interval(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=30))
        system.process_interval(0.0, 10.0)
        assert system.trust_manager.n_updates == 1
        # Honest raters' trust rises above the prior.
        trusts = [system.trust_manager.trust(r) for r in range(30)]
        assert np.mean(trusts) > 0.5

    def test_run_splits_into_intervals(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=30, span=30.0))
        reports = system.run(0.0, 30.0, interval=10.0)
        assert len(reports) == 3
        assert sum(r.n_ratings for r in reports) == 30

    def test_run_rejects_bad_interval(self):
        with pytest.raises(EmptyWindowError):
            build_system().run(0.0, 10.0, interval=0.0)


class TestFilterIntegration:
    def test_filtered_ratings_excluded_from_aggregate(self, rng):
        system = build_system(
            rating_filter=ZScoreFilter(k=2.0),
            detector=ARModelErrorDetector(
                threshold=0.1, windower=CountWindower(size=50, step=25)
            ),
        )
        ratings = honest_ratings(rng, n=30)
        outlier = make_rating(900, 0.0, 5.0, rater_id=150)
        system.ingest(ratings + [outlier])
        report = system.process_interval(0.0, 10.0)
        assert report.n_filtered >= 1
        accepted = system.accepted_stream(0)
        assert 900 not in {r.rating_id for r in accepted}

    def test_filtered_rater_trust_drops(self, rng):
        system = build_system(rating_filter=ZScoreFilter(k=2.0))
        ratings = honest_ratings(rng, n=30)
        outlier = make_rating(900, 0.0, 5.0, rater_id=150)
        system.ingest(ratings + [outlier])
        system.process_interval(0.0, 10.0)
        assert system.trust_manager.trust(150) < 0.5


class TestAggregation:
    def test_aggregate_close_to_quality(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=100))
        system.process_interval(0.0, 10.0)
        assert system.aggregated_rating(0) == pytest.approx(0.7, abs=0.07)

    def test_aggregator_override(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=50))
        system.process_interval(0.0, 10.0)
        default = system.aggregated_rating(0)
        simple = system.aggregated_rating(0, aggregator=SimpleAverage())
        assert abs(default - simple) < 0.1

    def test_no_ratings_rejected(self):
        with pytest.raises(EmptyWindowError):
            build_system().aggregated_rating(0)

    def test_aggregated_ratings_skips_empty_products(self, rng):
        system = build_system()
        system.register_product(Product(product_id=1, quality=0.4))
        system.ingest(honest_ratings(rng, n=30))
        system.process_interval(0.0, 10.0)
        results = system.aggregated_ratings()
        assert 0 in results
        assert 1 not in results


class TestIntervalReport:
    def test_report_structure(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=30))
        report = system.process_interval(0.0, 10.0)
        assert 0 in report.products
        product_report = report.products[0]
        assert product_report.n_ratings == 30
        assert report.trust_after
        assert isinstance(report.detected_malicious, list)
        assert isinstance(report.flagged_rating_ids, set)

    def test_trust_after_is_the_full_table(self, rng):
        """Procedure 2 returns only the raters it changed; the report
        still carries every rater's trust, not just this interval's."""
        system = build_system()
        early = honest_ratings(rng, n=10, start=0.0, span=5.0)
        late = honest_ratings(rng, n=10, start=10.0, span=5.0, rid_start=50)
        system.ingest(early + late)
        system.process_interval(0.0, 10.0)
        report = system.process_interval(10.0, 20.0)
        assert report.trust_after == system.trust_manager.trust_table()
        assert {r.rater_id for r in early} <= set(report.trust_after)
        assert report.trust_after[early[0].rater_id] > 0.5

    def test_reports_accumulate(self, rng):
        system = build_system()
        system.ingest(honest_ratings(rng, n=20, span=20.0))
        system.run(0.0, 20.0, interval=10.0)
        assert len(system.interval_reports) == 2
