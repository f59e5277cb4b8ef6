"""Configuration for the serving engine.

One frozen dataclass collects every knob of the long-running service:
batching, the per-product streaming detector, the trust
manager, and durability.  It round-trips through plain dicts so
snapshots can embed the exact configuration they were taken under and
recovery can rebuild an identically-behaving engine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.signal.ar import AR_METHODS

__all__ = ["ServiceConfig"]

#: Default alarm threshold per ensemble source.
_DEFAULT_SOURCE_THRESHOLDS: Dict[str, float] = {
    "ar": 0.10,
    "cograph": 0.5,
    "iterfilter": 0.5,
}

#: Scoring period (in trust flushes) per ensemble source.  The
#: AR source charges per rating, so its period is moot; the graph and
#: iterative-filtering sources run whole-structure sweeps, and pricing
#: those every flush is what would blow the <=2x ingest budget
#: (benchmarks/bench_ensemble.py) -- they score every 4th flush.
_SOURCE_PERIODS: Dict[str, int] = {
    "ar": 1,
    "cograph": 4,
    "iterfilter": 4,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the :class:`~repro.service.engine.RatingEngine`.

    Attributes:
        n_shards: must be 1.  The engine is a single partition;
            parallelism comes from ``cluster_workers`` processes.
        batch_max_ratings: flush the pending observations into the
            trust manager after this many ingested ratings (the ``K``
            of flush-every-K-or-T).
        batch_max_seconds: also flush when this much wall time passed
            since the last flush (None disables the deadline;
            deterministic replays should disable it).
        detector_order: AR model order of the per-product streaming
            detector.
        detector_window: ratings per streaming analysis window.
        detector_stride: arrivals between AR refits.
        detector_method: AR estimator name (see ``repro.signal.ar``).
            ``"covariance"`` refits through the incremental
            sliding-window normal equations
            (:class:`~repro.signal.sliding.SlidingCovarianceFitter`);
            other methods rebuild the least-squares problem per
            evaluation.
        detector_scale: suspicion level charged per flagged rating.
        ensemble_sources: enabled online suspicion sources, by name
            (see :data:`repro.service.ensemble.SOURCE_NAMES`); order
            is the flush/combine order.  The default, ``("ar",)``,
            reproduces the pre-ensemble engine bit-for-bit.
        ensemble_weights: per-source combiner weights, aligned with
            ``ensemble_sources`` (None = all 1.0).  Weights are
            non-negative and must not all be zero.
        ensemble_thresholds: per-source alarm thresholds, aligned with
            ``ensemble_sources``; a ``None`` entry (or a ``None``
            tuple) picks the source default (0.10 for ``"ar"`` -- a
            normalized model-error alarm threshold -- and 0.5 for the
            graph and iterative-filtering sources).
        ensemble_combiner: how per-source suspicion masses merge
            before the trust update: ``"weighted_mean"`` or ``"max"``
            (see :data:`repro.service.ensemble.COMBINERS`).
        max_raters_per_product: LRU cap on per-product rater
            bookkeeping inside each source (detector position maps,
            co-rating sets); evictions are counted in
            ``repro_ensemble_evictions_total``.
        trust_badness_weight: Procedure 2's ``b``.
        trust_detection_threshold: trust below this marks a rater
            malicious.
        trust_forgetting_factor: evidence discount per trust update.
        store_backend: rating-row storage engine:
            ``"memory"`` (the historical all-in-RAM lists) or
            ``"tiered"`` (full history in sqlite, so resident memory
            stays flat as histories grow -- see
            :class:`~repro.ratings.tiered.TieredRatingBackend`).
        wal_dir: directory for the write-ahead log and snapshots
            (None = run without durability).  The tiered backend
            places its sqlite file in a ``store/`` subdirectory;
            without a ``wal_dir`` it falls back to in-memory sqlite
            (no durability).
        wal_fsync_every: fsync the WAL every N appends.
        wal_segment_entries: entries per WAL segment file; the log
            rotates to a new segment after this many appends, and the
            garbage collector reclaims whole segments behind the
            latest snapshot.
        wal_gc: reclaim WAL segments and stale snapshots after each
            snapshot.  Segment deletion needs the durable (tiered)
            backend -- with the memory backend recovery replays the
            whole log, so only superseded snapshots are pruned.
        snapshot_every: write an automatic snapshot every N accepted
            ratings (0 = only explicit :meth:`snapshot` calls).
        cluster_workers: run the multi-process serving tier with this
            many worker processes (0 = the in-process engine; see
            :mod:`repro.service.cluster`).  Products are
            consistent-hashed across workers, each running an
            engine in its own process with its own WAL
            subdirectory, store, and ensemble; the coordinator owns
            the trust manager and the ingest WAL.  Requires
            ``wal_dir``.
        cluster_queue_depth: bounded per-worker ingest queue; a full
            queue blocks the coordinator's submit (backpressure)
            instead of growing memory without bound.
        cluster_ack_fsync_every: fsync the coordinator's ingest WAL
            every N appends -- the ack durability/latency trade.  It
            bounds the acked ratings a power loss can take: those past
            the last coordinator fsync whose worker had not yet fsynced
            them.  Workers fsync once per ingest frame (a group commit
            of up to 64 entries, before reporting it processed); their
            ``wal_fsync_every`` governs only ratings outside a group.
    """

    n_shards: int = 1
    batch_max_ratings: int = 64
    batch_max_seconds: Optional[float] = None
    detector_order: int = 4
    detector_window: int = 50
    detector_stride: int = 5
    detector_method: str = "covariance"
    detector_scale: float = 1.0
    ensemble_sources: Tuple[str, ...] = ("ar",)
    ensemble_weights: Optional[Tuple[float, ...]] = None
    ensemble_thresholds: Optional[Tuple[Optional[float], ...]] = None
    ensemble_combiner: str = "weighted_mean"
    max_raters_per_product: int = 1024
    trust_badness_weight: float = 1.0
    trust_detection_threshold: float = 0.5
    trust_forgetting_factor: float = 1.0
    store_backend: str = "memory"
    wal_dir: Optional[str] = None
    wal_fsync_every: int = 1
    wal_segment_entries: int = 100_000
    wal_gc: bool = True
    snapshot_every: int = 0
    cluster_workers: int = 0
    cluster_queue_depth: int = 4096
    cluster_ack_fsync_every: int = 64

    def __post_init__(self) -> None:
        if self.n_shards != 1:
            raise ConfigurationError(
                f"n_shards must be 1, got {self.n_shards}: the engine is one "
                f"partition; run cluster_workers processes for parallelism"
            )
        if self.batch_max_ratings < 1:
            raise ConfigurationError(
                f"batch_max_ratings must be >= 1, got {self.batch_max_ratings}"
            )
        if self.batch_max_seconds is not None and self.batch_max_seconds < 0:
            raise ConfigurationError(
                f"batch_max_seconds must be >= 0 or None, got {self.batch_max_seconds}"
            )
        if self.detector_method not in AR_METHODS:
            raise ConfigurationError(
                f"unknown AR method {self.detector_method!r}; "
                f"choose from {sorted(AR_METHODS)}"
            )
        if self.store_backend not in ("memory", "tiered"):
            raise ConfigurationError(
                f"unknown store_backend {self.store_backend!r}; "
                f"choose from ['memory', 'tiered']"
            )
        if self.wal_fsync_every < 1:
            raise ConfigurationError(
                f"wal_fsync_every must be >= 1, got {self.wal_fsync_every}"
            )
        if self.wal_segment_entries < 1:
            raise ConfigurationError(
                f"wal_segment_entries must be >= 1, got {self.wal_segment_entries}"
            )
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.cluster_workers < 0:
            raise ConfigurationError(
                f"cluster_workers must be >= 0, got {self.cluster_workers}"
            )
        if self.cluster_workers and self.wal_dir is None:
            raise ConfigurationError(
                "cluster_workers needs a wal_dir (the coordinator acks from "
                "its ingest WAL; there is no non-durable cluster mode)"
            )
        if self.cluster_queue_depth < 1:
            raise ConfigurationError(
                f"cluster_queue_depth must be >= 1, got {self.cluster_queue_depth}"
            )
        if self.cluster_ack_fsync_every < 1:
            raise ConfigurationError(
                f"cluster_ack_fsync_every must be >= 1, "
                f"got {self.cluster_ack_fsync_every}"
            )
        self._validate_ensemble()
        # Detector / trust ranges are validated by their owners; fail
        # fast here so a bad config surfaces at construction, not at
        # the first rating of a previously unseen product.  Building
        # the sources also validates per-source thresholds/periods.
        from repro.detectors.online import OnlineARDetector
        from repro.service.ensemble import build_sources
        from repro.trust.manager import TrustManagerConfig

        OnlineARDetector(
            order=self.detector_order,
            threshold=self.source_thresholds.get(
                "ar", _DEFAULT_SOURCE_THRESHOLDS["ar"]
            ),
            window_size=self.detector_window,
            stride=self.detector_stride,
            method=self.detector_method,
            scale=self.detector_scale,
            incremental=self.detector_method == "covariance",
            max_raters_per_product=self.max_raters_per_product,
        )
        build_sources(self)
        TrustManagerConfig(
            badness_weight=self.trust_badness_weight,
            detection_threshold=self.trust_detection_threshold,
            forgetting_factor=self.trust_forgetting_factor,
        )

    def _validate_ensemble(self) -> None:
        # Tuple-ify sequence fields so JSON round-trips (lists) compare
        # and hash like freshly-built configs.
        object.__setattr__(self, "ensemble_sources", tuple(self.ensemble_sources))
        for field_name in ("ensemble_weights", "ensemble_thresholds"):
            value = getattr(self, field_name)
            if value is not None:
                object.__setattr__(self, field_name, tuple(value))
        from repro.service.ensemble import SOURCE_NAMES
        from repro.service.ensemble.base import COMBINERS

        sources = self.ensemble_sources
        if not sources:
            raise ConfigurationError("ensemble_sources must name at least one source")
        unknown = [name for name in sources if name not in SOURCE_NAMES]
        if unknown:
            raise ConfigurationError(
                f"unknown ensemble sources {unknown}; choose from {list(SOURCE_NAMES)}"
            )
        if len(set(sources)) != len(sources):
            raise ConfigurationError(f"duplicate ensemble sources in {sources}")
        for field_name in ("ensemble_weights", "ensemble_thresholds"):
            value = getattr(self, field_name)
            if value is not None and len(value) != len(sources):
                raise ConfigurationError(
                    f"{field_name} has {len(value)} entries for "
                    f"{len(sources)} sources"
                )
        if self.ensemble_weights is not None:
            if any(w < 0 for w in self.ensemble_weights):
                raise ConfigurationError(
                    f"ensemble_weights must be >= 0, got {self.ensemble_weights}"
                )
            if sum(self.ensemble_weights) <= 0:
                raise ConfigurationError("ensemble_weights must not all be zero")
        if self.ensemble_combiner not in COMBINERS:
            raise ConfigurationError(
                f"unknown combiner {self.ensemble_combiner!r}; "
                f"choose from {sorted(COMBINERS)}"
            )
        if self.max_raters_per_product < 1:
            raise ConfigurationError(
                f"max_raters_per_product must be >= 1, "
                f"got {self.max_raters_per_product}"
            )

    @property
    def source_weights(self) -> Dict[str, float]:
        """Resolved source -> combiner weight (default 1.0 each)."""
        if self.ensemble_weights is None:
            return {name: 1.0 for name in self.ensemble_sources}
        return {
            name: float(weight)
            for name, weight in zip(self.ensemble_sources, self.ensemble_weights)
        }

    @property
    def source_thresholds(self) -> Dict[str, float]:
        """Resolved source -> alarm threshold (``None`` = source default)."""
        explicit = self.ensemble_thresholds or (None,) * len(self.ensemble_sources)
        return {
            name: float(_DEFAULT_SOURCE_THRESHOLDS[name] if value is None else value)
            for name, value in zip(self.ensemble_sources, explicit)
        }

    @property
    def source_periods(self) -> Dict[str, int]:
        """Source -> scoring period in flushes (see ``_SOURCE_PERIODS``)."""
        return {name: _SOURCE_PERIODS[name] for name in self.ensemble_sources}

    def worker_config(self, index: int) -> "ServiceConfig":
        """Derive worker ``index``'s engine config from this cluster config.

        Each worker runs a plain engine: its own WAL subdirectory
        (``<wal_dir>/worker-NNN``), ``cluster_workers=0`` (a worker
        never nests a cluster), and automatic snapshots disabled -- snapshotting is coordinated
        cluster-wide so the coordinator's state and the workers' never
        disagree about which trust digests a snapshot covers.
        """
        if not 0 <= index < max(self.cluster_workers, 1):
            raise ConfigurationError(
                f"worker index {index} out of range for "
                f"{self.cluster_workers} workers"
            )
        if self.wal_dir is None:
            raise ConfigurationError("worker_config needs a wal_dir")
        return ServiceConfig.from_dict(
            {
                **self.to_dict(),
                "cluster_workers": 0,
                "wal_dir": f"{self.wal_dir}/worker-{index:03d}",
                "snapshot_every": 0,
            }
        )

    def to_dict(self) -> dict:
        """Plain-dict form (embedded in snapshots)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored so snapshots written by newer versions
        with extra knobs still load.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(data).items() if k in known})
