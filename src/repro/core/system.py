"""The trust-enhanced rating aggregation system (Fig. 1).

:class:`TrustEnhancedRatingSystem` wires together the paper's pipeline:

    raw ratings
      -> rating filter (feature extraction I)          [abnormal -> buffer]
      -> AR suspicion detector (feature extraction II) [suspicion -> buffer]
      -> trust manager update (Procedure 2)
      -> trust-weighted rating aggregation

Ratings are ingested continuously; calling :meth:`process_interval`
closes one update interval ``[start, end)``: every product rated in the
interval is filtered and analyzed, observations land in the trust
manager's buffer, and trust is updated once at the interval's end
(Procedure 2's ``t(k)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.aggregation.base import Aggregator
from repro.aggregation.methods import ModifiedWeightedAverage
from repro.detectors.ar_detector import ARModelErrorDetector
from repro.detectors.base import SuspicionDetector, SuspicionReport
from repro.errors import EmptyWindowError
from repro.filters.base import FilterResult, RatingFilter
from repro.filters.beta_quantile import BetaQuantileFilter
from repro.ratings.models import Product, RaterProfile, Rating
from repro.ratings.store import RatingStore
from repro.ratings.stream import RatingStream
from repro.trust.manager import TrustManager, TrustManagerConfig

__all__ = ["ProductIntervalReport", "IntervalReport", "TrustEnhancedRatingSystem"]


@dataclass(frozen=True)
class ProductIntervalReport:
    """Pipeline diagnostics for one product in one interval."""

    product_id: int
    filter_result: FilterResult
    suspicion_report: SuspicionReport

    @property
    def n_ratings(self) -> int:
        return len(self.filter_result.kept) + len(self.filter_result.removed)


@dataclass
class IntervalReport:
    """Outcome of processing one update interval."""

    start: float
    end: float
    products: Dict[int, ProductIntervalReport] = field(default_factory=dict)
    trust_after: Dict[int, float] = field(default_factory=dict)
    detected_malicious: List[int] = field(default_factory=list)

    @property
    def n_ratings(self) -> int:
        return sum(p.n_ratings for p in self.products.values())

    @property
    def n_filtered(self) -> int:
        return sum(p.filter_result.n_removed for p in self.products.values())

    @property
    def flagged_rating_ids(self) -> Set[int]:
        flagged: Set[int] = set()
        for report in self.products.values():
            flagged |= set(report.suspicion_report.flagged_rating_ids)
        return flagged


class TrustEnhancedRatingSystem:
    """The integrated rating aggregator + trust manager.

    Args:
        rating_filter: feature extraction I (default: the beta-quantile
            filter with the paper's sensitivity 0.1).
        detector: feature extraction II (default: the AR detector with
            the paper's Section IV parameters).
        aggregator: rating-aggregation method (default: the modified
            weighted average, the paper's method 3).
        trust_config: trust-manager knobs (``b``, detection threshold,
            forgetting).
    """

    def __init__(
        self,
        rating_filter: Optional[RatingFilter] = None,
        detector: Optional[SuspicionDetector] = None,
        aggregator: Optional[Aggregator] = None,
        trust_config: Optional[TrustManagerConfig] = None,
    ) -> None:
        self.rating_filter = (
            rating_filter if rating_filter is not None else BetaQuantileFilter(sensitivity=0.1)
        )
        self.detector = (
            detector if detector is not None else ARModelErrorDetector(threshold=0.02)
        )
        self.aggregator = aggregator if aggregator is not None else ModifiedWeightedAverage()
        self.trust_manager = TrustManager(config=trust_config)
        self.store = RatingStore()
        self._removed_rating_ids: Set[int] = set()
        self._pending: List[Rating] = []
        self.interval_reports: List[IntervalReport] = []

    # -- registration / ingestion -------------------------------------------

    def register_product(self, product: Product) -> None:
        self.store.add_product(product)

    def register_rater(self, profile: RaterProfile) -> None:
        self.store.add_rater(profile)
        self.trust_manager.register_rater(profile.rater_id)

    def ingest(self, ratings: Iterable[Rating]) -> int:
        """Accept new raw ratings; they are processed at the next interval.

        Returns:
            Number of ratings ingested.
        """
        count = 0
        for rating in ratings:
            self.store.add_rating(rating)
            self._pending.append(rating)
            count += 1
        return count

    # -- the Fig. 1 pipeline ---------------------------------------------------

    def process_interval(self, start: float, end: float) -> IntervalReport:
        """Close the update interval ``[start, end)`` and update trust.

        Pending ratings timestamped inside the interval are grouped by
        product; each product's interval stream runs through the filter
        and the suspicion detector, observations accumulate in the
        trust manager's buffer, and one Procedure 2 update fires at the
        interval's end.
        """
        if end <= start:
            raise EmptyWindowError(f"interval needs end > start, got [{start}, {end})")
        in_interval = [r for r in self._pending if start <= r.time < end]
        self._pending = [r for r in self._pending if not (start <= r.time < end)]

        report = IntervalReport(start=start, end=end)
        by_product: Dict[int, List[Rating]] = {}
        for rating in in_interval:
            by_product.setdefault(rating.product_id, []).append(rating)

        buffer = self.trust_manager.observations
        for product_id, ratings in sorted(by_product.items()):
            stream = RatingStream.from_ratings(ratings)
            filter_result = self.rating_filter.filter(stream)
            self._removed_rating_ids |= set(filter_result.removed_ids)
            suspicion = self.detector.detect(filter_result.kept)

            for rating in stream:
                buffer.record_provided(rating.rater_id)
            for rating in filter_result.removed:
                buffer.record_filtered(rating.rater_id)
            suspicious_ratings = suspicion.flagged_rating_ids
            for rating in filter_result.kept:
                if rating.rating_id in suspicious_ratings:
                    buffer.record_suspicious(rating.rater_id)
            for rater_id, value in suspicion.rater_suspicion.items():
                buffer.record_suspicion_value(rater_id, value)

            report.products[product_id] = ProductIntervalReport(
                product_id=product_id,
                filter_result=filter_result,
                suspicion_report=suspicion,
            )

        self.trust_manager.update()
        report.trust_after = self.trust_manager.trust_table()
        report.detected_malicious = self.trust_manager.detected_malicious()
        self.interval_reports.append(report)
        return report

    def run(self, start: float, end: float, interval: float) -> List[IntervalReport]:
        """Process ``[start, end)`` in consecutive intervals of the given length."""
        if interval <= 0:
            raise EmptyWindowError(f"interval length must be > 0, got {interval}")
        reports = []
        left = start
        while left < end:
            right = min(left + interval, end)
            reports.append(self.process_interval(left, right))
            left = right
        return reports

    # -- aggregation -----------------------------------------------------------

    def accepted_stream(self, product_id: int) -> RatingStream:
        """A product's ratings minus everything the filter removed."""
        return self.store.stream(product_id).without(sorted(self._removed_rating_ids))

    def aggregated_rating(
        self, product_id: int, aggregator: Optional[Aggregator] = None
    ) -> float:
        """Aggregate one product with current trust values.

        Args:
            product_id: the product to score.
            aggregator: override the system's aggregation method (used
                by the comparison benches so one simulated world can be
                scored by all four methods).
        """
        method = aggregator if aggregator is not None else self.aggregator
        stream = self.accepted_stream(product_id)
        if len(stream) == 0:
            raise EmptyWindowError(
                f"product {product_id} has no accepted ratings to aggregate"
            )
        trusts = [self.trust_manager.trust(r.rater_id) for r in stream]
        return method.aggregate(stream.values, trusts)

    def aggregated_ratings(
        self, aggregator: Optional[Aggregator] = None
    ) -> Dict[int, float]:
        """Aggregate every product that has accepted ratings."""
        results: Dict[int, float] = {}
        for product_id in self.store.product_ids:
            try:
                results[product_id] = self.aggregated_rating(product_id, aggregator)
            except EmptyWindowError:
                continue
        return results
