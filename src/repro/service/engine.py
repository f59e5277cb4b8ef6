"""The streaming rating engine (the service's core).

:class:`RatingEngine` turns the library's batch primitives into a
long-running, thread-safe serving component:

* **One partition** -- the engine owns one rating store, one instance
  of the configured detector ensemble
  (:mod:`repro.service.ensemble`), and the pending observation tallies
  for every rater, all behind a single engine lock.  Parallelism comes
  from processes, not threads: ``repro serve --workers N`` runs N
  engines behind a consistent-hash coordinator
  (:mod:`repro.service.cluster`), so a default in-process engine is
  the same program as a 1-worker cluster worker.
* **Detector ensemble** -- every accepted rating is observed by each
  enabled :class:`~repro.service.ensemble.OnlineSuspicionSource`; at
  flush time their per-rater suspicion masses are merged by the
  configured combiner and fed to Procedure 2.  The default config
  enables only the AR source, which reproduces the pre-ensemble
  engine bit-for-bit (see
  :class:`~repro.service.ensemble.ar_source.ARSuspicionSource`).
* **Batched trust updates** -- per-rater observations (ratings
  provided, suspicion charged by the sources) accumulate in the engine
  and are flushed every ``batch_max_ratings`` ingests or
  ``batch_max_seconds`` of wall time, amortizing Procedure 2 over many
  ratings.  A flush is packaged as a digest and applied by a
  :class:`~repro.service.ledger.TrustLedger` -- the engine's own, or
  in a cluster worker the coordinator's -- whose reply, the trusts
  that changed, is merged into the read mirror every trust read is
  served from.
* **Durability** -- accepted ratings are appended to a segmented
  write-ahead log *before* touching in-memory state; :meth:`snapshot`
  persists the bounded engine state (ensemble state included) and
  :meth:`recover` rebuilds a crashed engine bit-for-bit by replaying
  the WAL over the latest snapshot.  Every trust flush is logged as a
  control row, and a replay flushes at those rows alone, so a
  recovered engine flushes where the live one did, whatever triggered
  the flush.  :meth:`submit_many` and the
  cluster worker group-commit the log (:meth:`group_commit`): one
  fsync per chunk or ingest frame, not per rating.  Nothing leaves
  the process before the log rows it depends on are fsynced.
* **Tiered storage** -- with ``store_backend="tiered"`` the rating rows
  live in sqlite on disk (``wal_dir/store/ratings.sqlite``), keyed by
  WAL sequence number.  Because that store is durable, snapshots
  garbage-collect the WAL segments they cover, so disk, memory, and
  recovery time stay proportional to the suffix since the last
  snapshot -- never to total history.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.aggregation.methods import ModifiedWeightedAverage
from repro.errors import ConfigurationError, UnknownProductError
from repro.ratings.backend import InMemoryBackend, RatingStoreBackend
from repro.ratings.models import Product, RaterClass, RaterProfile, Rating
from repro.ratings.store import RatingStore
from repro.ratings.tiered import TieredRatingBackend
from repro.service.config import ServiceConfig
from repro.service.ensemble import build_sources
from repro.service.ensemble.ar_source import ARSuspicionSource
from repro.service.ensemble.base import COMBINERS, OnlineSuspicionSource
from repro.service.ledger import TrustLedger
from repro.service.metrics import MetricsRegistry
from repro.service.wal import (
    WriteAheadLog,
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    read_snapshot,
    replay_wal_meta,
    write_snapshot,
)
from repro.trust.manager import TrustManager

__all__ = ["RatingEngine", "SubmitResult"]

#: Ratings per WAL group commit: one :meth:`RatingEngine.submit_many`
#: chunk, and the most entries the cluster coordinator packs into one
#: ingest frame (a worker commits each frame as one group) or hands to
#: the OS in one write before acking.
GROUP_COMMIT_MAX = 64

# Durability contracts (checked by lint rule DP02): an accepted rating
# reaches the WAL before any store mutation; a snapshot fsyncs the WAL
# before writing and only GCs segments the written snapshot covers.
__effect_contracts__ = {
    "orderings": {
        "RatingEngine._ingest": [["wal_append", "store_add"]],
        "RatingEngine.snapshot": [
            ["wal_fsync", "snapshot_write"],
            ["snapshot_write", "wal_gc"],
        ],
    },
}


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one :meth:`RatingEngine.submit` call.

    Attributes:
        accepted: False when the rating was rejected (and not logged).
        seq: global sequence number of an accepted rating (its WAL
            position when durability is enabled).
        reason: human-readable rejection reason for refused ratings.
        flagged: True when this rating's arrival triggered a suspicious
            window verdict.
        queued: True when the rating was durably logged and enqueued
            for asynchronous processing (cluster ingest) rather than
            fully applied before the ack; ``flagged`` is then always
            False because detection runs after the ack.
    """

    accepted: bool
    seq: Optional[int] = None
    reason: Optional[str] = None
    flagged: bool = False
    queued: bool = False


@dataclass
class _ScoreCacheEntry:
    """Incremental per-product score aggregates (engine lock held).

    Valid only while ``epoch`` matches the engine's trust-flush epoch:
    every trust update can move every rater's weight, so a flush
    invalidates all entries at once (lazily, by the epoch check).
    Within an epoch trusts are constant, so each accepted rating folds
    into the sums with its rater's current weight and the cached score
    equals a full re-aggregation.

    Attributes:
        epoch: trust-flush epoch the aggregates were computed under.
        n: ratings folded into the sums.
        weight_sum: ``sum(max(T_i - floor, 0))``.
        weighted_value_sum: ``sum(max(T_i - floor, 0) * x_i)``.
        value_sum: ``sum(x_i)`` -- the all-at-or-below-floor fallback.
    """

    epoch: int
    n: int
    weight_sum: float
    weighted_value_sum: float
    value_sum: float

    def score(self) -> float:
        if self.weight_sum > 0.0:
            return self.weighted_value_sum / self.weight_sum
        return self.value_sum / self.n


class RatingEngine:
    """Thread-safe front end over the rating/trust pipeline.

    Args:
        config: service knobs (defaults to :class:`ServiceConfig`).
        metrics: registry to record observability metrics into; a
            private registry is created when omitted (exposed as
            :attr:`metrics` either way).
        trust_delegate: when set, the engine runs in **cluster-worker
            mode**: it has no ledger of its own, and each flush digest
            (see :mod:`repro.service.ledger`) is handed to this
            callable, which must return the ledger's reply (the
            rater->trust values the engine's mirror lacks).  Digest
            ``seq`` equals the engine's trust-update counter, which is
            deterministic under WAL replay, so the receiving ledger can
            deduplicate redelivered digests after a crash.  Without a
            delegate the engine applies its digests to its own
            :class:`~repro.service.ledger.TrustLedger`.

    Either way the reply is merged into the read mirror serving
    :meth:`trust`, :meth:`trust_table`, :meth:`score` weighting, and
    :meth:`detected_malicious`.

    Concurrency: ingest, flush, score reads, and the state capture of
    :meth:`snapshot` serialize on one engine lock (``_lock``), taken
    before ``_trust_lock``.  The WAL is appended under the engine lock,
    so WAL order is apply order and a single-threaded replay
    reproduces any interleaving of concurrent submits.  Trust reads
    take only ``_trust_lock`` and never wait behind an ingest.
    """

    # Lint contract (CC03): mutable engine state and its owning locks.
    _GUARDED_BY = {
        "_store": "_lock",
        "_sources": "_lock",
        "_score_cache": "_lock",
        "_last_time": "_lock",
        "_pending_provided": "_lock",
        "_since_flush": "_lock",
        "_last_flush": "_lock",
        "_n_accepted": "_lock",
        "_n_rejected": "_lock",
        "_n_evaluations": "_lock",
        "_n_flagged": "_lock",
        "_n_trust_updates": "_lock",
        "_trust_epoch": "_trust_lock",
        "_trust_mirror": "_trust_lock",
    }

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        trust_delegate: Optional[Callable[[dict], Dict[int, float]]] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.aggregator = ModifiedWeightedAverage()
        self._lock = threading.RLock()
        self._trust_lock = threading.Lock()
        # A cluster worker has no ledger: its delegate ships digests to
        # the coordinator's.
        self._ledger = TrustLedger(self.config) if trust_delegate is None else None
        self._trust_delegate = trust_delegate or self._apply_to_own_ledger
        # The ledger's table as its replies built it; serves every read.
        self._trust_mirror: Dict[int, float] = {}
        # Opaque client bookkeeping persisted with every snapshot: each
        # submit's ``wal_meta`` is merged in, rejected submits included,
        # and so is each replayed row's.  The cluster worker reads the
        # coordinator sequence number ``"g"`` back from here as its
        # redelivery watermark.
        self.client_meta: Dict[str, int] = {}
        # Flushes so far; the next digest's seq is one more.
        self._n_trust_updates = 0
        self._combine = COMBINERS[self.config.ensemble_combiner]
        self._source_weights = self.config.source_weights
        # Bumped on every trust flush: score-cache entries from older
        # epochs were aggregated under stale trusts and are invalid.
        self._trust_epoch = 0
        self._started = time.monotonic()
        # The tiered backend's sqlite file is durable only alongside a
        # WAL directory; that combination is what licenses WAL segment
        # GC (recovery reads the prefix from sqlite, not the log).
        self._durable_store = (
            self.config.store_backend == "tiered" and self.config.wal_dir is not None
        )
        self._store = RatingStore(backend=self._build_backend())
        # The configured detector ensemble, in config order (= flush/
        # combine order).
        self._sources: Dict[str, OnlineSuspicionSource] = build_sources(self.config)
        self._ar: Optional[ARSuspicionSource] = self._sources.get("ar")  # type: ignore[assignment]
        self._score_cache: Dict[int, _ScoreCacheEntry] = {}
        self._last_time: Dict[int, float] = {}
        self._pending_provided: Dict[int, int] = {}
        self._since_flush = 0
        self._last_flush = time.monotonic()
        self._n_accepted = 0
        self._n_rejected = 0
        self._n_evaluations = 0
        self._n_flagged = 0
        self._recovering = False

        m = self.metrics
        # Help texts for these come from metrics.SHARED_FAMILIES.
        self._m_latency = m.histogram("repro_ingest_latency_seconds")
        self._m_accepted = m.counter("repro_ratings_accepted_total")
        self._m_rejected = m.counter("repro_ratings_rejected_total")
        self._m_refits = m.counter("repro_ar_refits_total")
        self._m_flagged = m.counter("repro_windows_flagged_total")
        self._m_trust_updates = m.counter("repro_trust_updates_total")
        self._m_score_hits = m.counter(
            "repro_score_cache_hits_total",
            "score() calls answered from the incremental aggregate cache.",
        )
        self._m_score_misses = m.counter(
            "repro_score_cache_misses_total",
            "score() calls that re-aggregated the product's ratings.",
        )
        self._m_fsync = m.histogram("repro_wal_fsync_seconds")
        self._m_wal_segments = m.gauge("repro_wal_segments")
        self._m_store_cold = m.gauge(
            "repro_store_cold_ratings", "Ratings committed to durable storage."
        )
        self._m_active_products = m.gauge(
            "repro_active_products", "Products with streaming detector state."
        )
        self._m_queue_depth = m.gauge(
            "repro_shard_queue_depth", "Ratings pending since the last trust flush."
        )
        self._m_suspicion = {
            name: m.gauge(
                "repro_ensemble_suspicion",
                "Suspicion mass emitted by a source at its latest flush.",
                labels={"source": name},
            )
            for name in self.config.ensemble_sources
        }
        self._m_flush_latency = {
            name: m.histogram(
                "repro_ensemble_flush_seconds",
                "Wall time of one source's flush() call.",
                labels={"source": name},
            )
            for name in self.config.ensemble_sources
        }
        self._m_evictions = {
            name: m.counter(
                "repro_ensemble_evictions_total",
                "Bounded-memory LRU evictions inside a source.",
                labels={"source": name},
            )
            for name in self.config.ensemble_sources
        }
        self._wire_sources()

        self.wal: Optional[WriteAheadLog] = None
        if self.config.wal_dir is not None:
            self.wal = WriteAheadLog(
                Path(self.config.wal_dir),
                segment_entries=self.config.wal_segment_entries,
                on_fsync=self._m_fsync.observe,
                on_rotate=self._m_wal_segments.set,
            )
            self._m_wal_segments.set(self.wal.n_segments)

    def _build_backend(self) -> RatingStoreBackend:
        """The rating-row storage engine, per the config."""
        if self.config.store_backend != "tiered":
            return InMemoryBackend()
        path: Optional[Path] = None
        if self.config.wal_dir is not None:
            path = Path(self.config.wal_dir) / "store" / "ratings.sqlite"
        return TieredRatingBackend(path=path)

    def _wire_sources(self) -> None:
        """Point the sources at the engine's metrics/counters.

        Callbacks run under the engine lock (observe/flush hold it),
        so touching engine counters here is safe.
        """
        for name, source in self._sources.items():
            source.on_eviction = self._m_evictions[name].inc
        ar = self._ar
        if ar is not None:

            def on_evaluation() -> None:
                self._n_evaluations += 1
                self._m_refits.inc()

            def on_flag() -> None:
                self._n_flagged += 1
                self._m_flagged.inc()

            ar.on_evaluation = on_evaluation
            ar.on_flag = on_flag
            ar.on_new_product = self._m_active_products.inc

    @property
    def n_accepted(self) -> int:
        with self._lock:
            return self._n_accepted

    # -- ingest ------------------------------------------------------------

    def submit(self, rating: Rating, wal_meta: Optional[dict] = None) -> SubmitResult:
        """Ingest one rating: log, store, detect, and batch-update trust.

        Rejections (a rating older than the product's newest rating)
        are reported in the result, never raised -- a serving loop must
        not die on one bad client.

        ``wal_meta`` is an optional dict of ints stored with the
        rating's WAL entry (see :meth:`WriteAheadLog.append`) and merged
        into :attr:`client_meta`; the cluster worker threads its
        coordinator sequence number through here.
        """
        start = time.perf_counter()
        result, snapshot_due = self._ingest(rating, log=True, wal_meta=wal_meta)
        self._m_latency.observe(time.perf_counter() - start)
        if snapshot_due:
            self.snapshot()
        return result

    def submit_many(self, ratings: Iterable[Rating]) -> List[SubmitResult]:
        """Ingest a batch; returns one result per rating.

        Runs in chunks of :data:`GROUP_COMMIT_MAX` ratings, one
        :meth:`group_commit` each, so the WAL is fsynced once per chunk
        rather than once per rating.  Returns only after the last
        chunk's sync.
        """
        results: List[SubmitResult] = []
        iterator = iter(ratings)
        while True:
            chunk = list(itertools.islice(iterator, GROUP_COMMIT_MAX))
            if not chunk:
                return results
            with self.group_commit():
                results.extend(self.submit(rating) for rating in chunk)

    @contextmanager
    def group_commit(self) -> Iterator[None]:
        """Hold the engine lock and commit the WAL appends as one group.

        Every rating submitted inside the block is written and flushed
        to the OS as usual, but fsynced once, when the block exits (see
        :meth:`WriteAheadLog.group_commit`).  Holding the engine lock
        throughout means no reader can see a rating before it is
        durable; what does leave mid-block syncs first -- a
        delegate-mode trust digest (:meth:`_flush_locked`) and a
        snapshot (:meth:`snapshot`).
        """
        with self._lock:
            # The group's closing fsync runs under the engine lock on
            # purpose: releasing the lock first would let a score read
            # see ratings that a power loss can still take.
            group = (
                self.wal.group_commit()  # repro: lint-disable[CC02]
                if self.wal is not None
                else nullcontext()
            )
            with group:
                yield

    def _ingest(
        self,
        rating: Rating,
        log: bool,
        seq: Optional[int] = None,
        wal_meta: Optional[dict] = None,
    ) -> Tuple[SubmitResult, bool]:
        """Log (when ``log``) and apply one rating.

        Returns the result and whether an automatic snapshot is due.
        The snapshot is decided here, under the lock, from the accepted
        count, so each multiple of ``snapshot_every`` is claimed by
        exactly one submit even when threads race.
        """
        with self._lock:
            if wal_meta:
                self.client_meta.update(wal_meta)
            last = self._last_time.get(rating.product_id)
            if last is not None and rating.time < last:
                self._n_rejected += 1
                self._m_rejected.inc()
                return SubmitResult(
                    accepted=False,
                    reason=(
                        f"out-of-order rating for product {rating.product_id}: "
                        f"{rating.time} after {last}"
                    ),
                ), False
            if log and self.wal is not None:
                seq = self.wal.append(rating, meta=wal_meta)
            if seq is None:
                seq = self._n_accepted
            flagged = self._apply(rating, seq)
            self._n_accepted += 1
            snapshot_due = bool(
                log
                and self.wal is not None
                and self.config.snapshot_every
                and self._n_accepted % self.config.snapshot_every == 0
            )
        self._m_accepted.inc()
        return SubmitResult(accepted=True, seq=seq, flagged=flagged), snapshot_due

    def _add_to_store(self, rating: Rating, seq: Optional[int]) -> None:
        """Register the rating's product/rater and store the row (lock held)."""
        pid, rid = rating.product_id, rating.rater_id
        if not self._store.has_product(pid):
            self._store.add_product(Product(product_id=pid, quality=0.5))
        if not self._store.has_rater(rid):
            self._store.add_rater(
                RaterProfile(rater_id=rid, rater_class=RaterClass.RELIABLE)
            )
        self._store.add_rating(rating, seq=seq)

    def _apply(self, rating: Rating, seq: int) -> bool:
        """Store + detect + tally one accepted rating (lock held).

        ``seq`` is the rating's global log position; a durable backend
        keys its cold-tier row by it, which is what makes recovery's
        suffix re-ingest idempotent.
        """
        pid, rid = rating.product_id, rating.rater_id
        self._add_to_store(rating, seq)

        entry = self._score_cache.get(pid)
        if entry is not None:
            # Trusts are constant within an epoch, so a current entry
            # absorbs the new rating at its rater's current weight and
            # stays equal to a full re-aggregation; a stale entry is
            # dropped (the next score() repopulates it).
            with self._trust_lock:
                epoch = self._trust_epoch
                trust = self._trust_value(rid)
            if entry.epoch == epoch:
                weight = max(trust - self.aggregator.floor, 0.0)
                entry.n += 1
                entry.weight_sum += weight
                entry.weighted_value_sum += weight * rating.value
                entry.value_sum += rating.value
            else:
                del self._score_cache[pid]

        for source in self._sources.values():
            source.observe(rating)
        self._last_time[pid] = rating.time
        flagged = self._ar.last_flagged if self._ar is not None else False

        self._pending_provided[rid] = self._pending_provided.get(rid, 0) + 1
        self._since_flush += 1
        self._m_queue_depth.set(self._since_flush)

        if self._recovering:
            # Every flush left a control marker in the WAL, and a replay
            # flushes at those markers alone: the cadence triggers would
            # miss explicit and deadline flushes and misnumber digests.
            return flagged
        if self._since_flush >= self.config.batch_max_ratings or (
            self.config.batch_max_seconds is not None
            and time.monotonic() - self._last_flush >= self.config.batch_max_seconds
        ):
            self._flush_locked()
        return flagged

    # -- trust flushing ------------------------------------------------------

    def _flush_locked(self) -> None:
        """Push the pending tallies through Procedure 2 (lock held).

        Each source flushes its per-rater suspicion mass (timed into
        ``repro_ensemble_flush_seconds``); the configured combiner
        merges the masses; the merged mass plus the AR source's
        flagged-rating counts form the digest the trust ledger applies.
        """
        if self._since_flush == 0:
            self._last_flush = time.monotonic()
            return
        per_source: Dict[str, Dict[int, float]] = {}
        flagged_counts: Dict[int, int] = {}
        for name, source in self._sources.items():
            start = time.perf_counter()
            mass = source.flush()
            self._m_flush_latency[name].observe(time.perf_counter() - start)
            self._m_suspicion[name].set(sum(mass.values()))
            per_source[name] = mass
            # Only sources whose alarms map onto individual ratings
            # report flagged counts (today: the AR source).
            flush_counts = getattr(source, "flush_counts", None)
            if flush_counts is not None:
                for rater_id, count in flush_counts().items():
                    flagged_counts[rater_id] = (
                        flagged_counts.get(rater_id, 0) + count
                    )
        # The digest seq is this engine's deterministic trust-update
        # counter, so a ledger that already saw it (a replayed flush
        # after recovery) can discard it while still replying.
        self._n_trust_updates += 1
        digest = {
            "seq": self._n_trust_updates,
            "provided": self._pending_provided,
            "suspicion": self._combine(per_source, self._source_weights),
            "flagged": flagged_counts,
        }
        if self.wal is not None:
            # The flush is recorded as a control marker so a replay
            # reproduces it at exactly this log position -- without it,
            # recovery would re-accumulate the flushed tallies and
            # re-use this digest's seq for different contents.
            if not self._recovering:
                self.wal.append_control({"flush": 0})
            if self._ledger is None:
                # Cluster-worker mode: the digest's WAL rows must be
                # durable before the digest escapes the process: if the
                # receiver applies it and we crash with an unfsynced
                # tail, replay would regenerate a *different* digest
                # under the same seq and the receiver's dedup would
                # silently drop it.
                self.wal.sync()
        # The delegate call (an RPC in the cluster) runs outside
        # _trust_lock so trust reads stay available meanwhile.
        changed = self._trust_delegate(digest)
        with self._trust_lock:
            self._trust_mirror.update(changed)
            self._trust_epoch += 1
        self._pending_provided = {}
        self._since_flush = 0
        self._last_flush = time.monotonic()
        self._m_trust_updates.inc()
        self._m_queue_depth.set(0)
        for source in self._sources.values():
            source.prune()

    def flush(self) -> None:
        """Flush the pending observations into the trust ledger."""
        with self._lock:
            self._flush_locked()

    def _replay_control(self, meta: Optional[dict]) -> None:
        """Re-execute one WAL control row during recovery.

        The only control row is the flush marker ``{"flush": 0}``
        that every trust flush logs: replaying it flushes at the
        marker's log position, regenerating the original digest (same
        seq, same contents) for the ledger to deduplicate or apply.
        """
        control = (meta or {}).get("control") or {}
        if "flush" in control:
            with self._lock:
                self._flush_locked()

    def _apply_to_own_ledger(self, digest: dict) -> Dict[int, float]:
        """The in-process trust delegate: the engine's ledger, origin 0."""
        return self._own_ledger().apply(digest, 0)[1]

    def install_trust_mirror(self, table: Dict[int, float]) -> None:
        """Install a full trust table.

        Replaces the read mirror that serves :meth:`trust`,
        :meth:`score` weighting, and :meth:`detected_malicious`, and
        bumps the trust epoch so stale score-cache entries are dropped.
        Called after a snapshot load, and by the cluster worker with
        the coordinator's ``welcome`` table after (re)connect; each
        flush merges its reply instead.  The caller passes a fresh
        ``{int: float}`` table and the engine keeps it as is.
        """
        with self._trust_lock:
            self._trust_mirror = table
            self._trust_epoch += 1

    def _trust_value(self, rater_id: int) -> float:
        """Trust used for read paths; caller holds ``_trust_lock``.

        0.5 prior for raters not yet in the ledger's table.
        """
        return self._trust_mirror.get(rater_id, 0.5)

    def _own_ledger(self) -> TrustLedger:
        if self._ledger is None:
            raise ConfigurationError(
                "a cluster worker's trust ledger lives in the coordinator"
            )
        return self._ledger

    # -- queries -------------------------------------------------------------

    def score(self, product_id: int) -> Optional[float]:
        """Trust-weighted (modified weighted average) score of a product.

        Served from an incremental per-product aggregate cache when one
        is current: a hit costs O(1) instead of re-aggregating every
        rating.  A miss (first read, or any trust flush since the entry
        was built) re-aggregates and repopulates the entry; ingests
        fold new ratings into current entries (see :class:`_ScoreCacheEntry`
        for why the cached value equals the full re-aggregation).

        Returns None for a registered product with no ratings; raises
        :class:`UnknownProductError` for a product never seen.
        """
        with self._lock:
            if not self._store.has_product(product_id):
                raise UnknownProductError(f"product {product_id} is not registered")
            entry = self._score_cache.get(product_id)
            if entry is not None:
                with self._trust_lock:
                    epoch = self._trust_epoch
                if entry.epoch == epoch:
                    self._m_score_hits.inc()
                    return entry.score()
                del self._score_cache[product_id]
            self._m_score_misses.inc()
            ratings = list(self._store.stream(product_id))
            if not ratings:
                return None
            # Epoch and trusts must come from one _trust_lock hold so
            # the entry is stamped with the epoch its weights belong to.
            with self._trust_lock:
                epoch = self._trust_epoch
                trusts = [self._trust_value(r.rater_id) for r in ratings]
            values = [r.value for r in ratings]
            floor = self.aggregator.floor
            weights = [max(t - floor, 0.0) for t in trusts]
            entry = _ScoreCacheEntry(
                epoch=epoch,
                n=len(ratings),
                weight_sum=float(sum(weights)),
                weighted_value_sum=float(
                    sum(w * v for w, v in zip(weights, values))
                ),
                value_sum=float(sum(values)),
            )
            self._score_cache[product_id] = entry
            # Return the entry's own arithmetic, not the aggregator's:
            # within an epoch every read must yield the identical float,
            # whether it missed or hit.
            return entry.score()

    def _score_uncached(self, product_id: int) -> Optional[float]:
        """The pre-cache score path (reference for tests and benches)."""
        with self._lock:
            if not self._store.has_product(product_id):
                raise UnknownProductError(f"product {product_id} is not registered")
            ratings = list(self._store.stream(product_id))
        if not ratings:
            return None
        with self._trust_lock:
            trusts = [self._trust_value(r.rater_id) for r in ratings]
        return float(self.aggregator.aggregate([r.value for r in ratings], trusts))

    def trust(self, rater_id: int) -> float:
        """Current trust in a rater (0.5 prior for unseen raters)."""
        with self._trust_lock:
            return self._trust_value(rater_id)

    def trust_table(self) -> Dict[int, float]:
        """rater_id -> trust for every rater with a record."""
        with self._trust_lock:
            return dict(self._trust_mirror)

    def detected_malicious(self) -> List[int]:
        """Raters currently below the detection threshold."""
        threshold = self.config.trust_detection_threshold
        with self._trust_lock:
            return sorted(
                rid for rid, t in self._trust_mirror.items() if t < threshold
            )

    def suspicion_table(self) -> Dict[int, float]:
        """rater_id -> combined suspicion mass ever flushed.

        The engine-level detector statistic: what the ensemble has
        charged each rater with so far, after combining.  Pending
        (unflushed) mass is not included.  Kept by the ledger, so a
        cluster worker has none (ask the coordinator).
        """
        return self._own_ledger().suspicion_table()

    @property
    def trust_manager(self) -> TrustManager:
        """The engine's own ledger's trust manager (for inspection)."""
        return self._own_ledger().trust_manager

    def ensemble_stats(self) -> dict:
        """Configuration and counters of the detector ensemble."""
        thresholds = self.config.source_thresholds
        periods = self.config.source_periods
        with self._lock:
            evictions = {
                name: source.n_evictions for name, source in self._sources.items()
            }
        return {
            "combiner": self.config.ensemble_combiner,
            "sources": {
                name: {
                    "weight": self._source_weights[name],
                    "threshold": thresholds[name],
                    "period": periods[name],
                    "n_evictions": evictions[name],
                }
                for name in self.config.ensemble_sources
            },
        }

    def has_product(self, product_id: int) -> bool:
        """True when the engine has seen the product."""
        with self._lock:
            return self._store.has_product(product_id)

    def snapshot_stats(self) -> dict:
        """Point-in-time counters for dashboards and the replay report."""
        with self._lock:
            accepted = self._n_accepted
            counters = {
                "n_rejected": self._n_rejected,
                "n_products": len(self._store.product_ids),
                "n_ratings": self._store.n_ratings,
                "pending": self._since_flush,
                "ar_evaluations": self._n_evaluations,
                "windows_flagged": self._n_flagged,
                "trust_updates": self._n_trust_updates,
            }
        uptime = time.monotonic() - self._started
        with self._trust_lock:
            n_raters = len(self._trust_mirror)
        return {
            "uptime_seconds": uptime,
            "n_accepted": accepted,
            **counters,
            "n_raters": n_raters,
            "ratings_per_second": accepted / uptime if uptime > 0 else 0.0,
            "ensemble": self.ensemble_stats(),
            "wal_entries": self.wal.n_entries if self.wal is not None else None,
        }

    # -- durability ----------------------------------------------------------

    def _state_dict(self) -> dict:
        """Bounded engine state (lock held)."""
        ledger_state = (
            self._ledger.state_dict()
            if self._ledger is not None
            # A cluster worker's trust lives in the coordinator.
            else {"trust": {}, "suspicion_totals": {}}
        )
        # With a WAL, the covered position is its true entry count --
        # flush markers occupy sequence numbers without being accepted
        # ratings, so the two counters differ.
        wal_position = (
            self.wal.n_entries if self.wal is not None else self._n_accepted
        )
        return {
            "version": 3,
            "config": self.config.to_dict(),
            "wal_position": wal_position,
            "n_accepted": self._n_accepted,
            "n_rejected": self._n_rejected,
            "n_evaluations": self._n_evaluations,
            "n_flagged": self._n_flagged,
            **ledger_state,
            "n_trust_updates": self._n_trust_updates,
            "client_meta": dict(self.client_meta),
            "sources": {
                name: source.state_dict() for name, source in self._sources.items()
            },
            "last_time": {str(pid): t for pid, t in self._last_time.items()},
            "pending_provided": {
                str(k): v for k, v in self._pending_provided.items()
            },
            "since_flush": self._since_flush,
            "store_n_ratings": self._store.n_ratings,
        }

    def _load_state(self, state: dict) -> None:
        """Install a snapshot's state (single-threaded recovery only).

        Only the current layout (version 3) loads: older snapshots
        were written by the thread-sharded engine, whose per-shard
        state has no single-partition equivalent.
        """
        version = state.get("version")
        if version != 3:
            raise ConfigurationError(
                f"snapshot version {version} is not supported (this engine "
                f"reads version 3); recover it with the release that wrote "
                f"it, or start from an empty WAL directory"
            )
        if self._store.n_ratings != state["store_n_ratings"]:
            raise ConfigurationError(
                f"WAL prefix rebuilt {self._store.n_ratings} ratings but the "
                f"snapshot recorded {state['store_n_ratings']}"
            )
        saved_sources = state["sources"]
        if set(saved_sources) != set(self._sources):
            raise ConfigurationError(
                f"snapshot has ensemble sources {sorted(saved_sources)} but "
                f"the config enables {sorted(self._sources)}"
            )
        for name, source in self._sources.items():
            source.load_state(saved_sources[name])
        self._last_time = {
            int(pid): float(t) for pid, t in state["last_time"].items()
        }
        self._pending_provided = {
            int(k): int(v) for k, v in state["pending_provided"].items()
        }
        self._since_flush = int(state["since_flush"])
        self._n_accepted = int(state["n_accepted"])
        self._n_rejected = int(state["n_rejected"])
        self._n_evaluations = int(state["n_evaluations"])
        self._n_flagged = int(state["n_flagged"])
        self._n_trust_updates = int(state["n_trust_updates"])
        if self._ledger is not None:
            self._ledger.load_state(state)
            self.install_trust_mirror(self._ledger.trust_table())
        self.client_meta = {
            str(k): int(v) for k, v in state["client_meta"].items()
        }

    def snapshot(self) -> Path:
        """Persist engine state atomically; returns the snapshot path.

        The state (and, with the tiered backend, the cold tier's
        commit) is captured under the engine lock, so the snapshot
        covers exactly the WAL prefix applied at that instant; ingest
        resumes while the file is written.  The order after the
        capture is the durability contract: WAL synced (through at
        least the captured position), then the snapshot written --
        only *then* may the garbage collector reclaim the WAL segments
        and older snapshots the new snapshot supersedes (``wal_gc``).
        Segment deletion additionally requires the durable tiered
        backend; with the memory backend recovery replays the whole
        log, so only superseded snapshots are pruned.
        """
        if self.config.wal_dir is None:
            raise ConfigurationError("snapshots need a configured wal_dir")
        with self._lock:
            self._store.commit()
            state = self._state_dict()
        if self.wal is not None:
            self.wal.sync()
        path = write_snapshot(self.config.wal_dir, state)
        if self.config.wal_gc:
            if self._durable_store and self.wal is not None:
                self.wal.gc(int(state["wal_position"]))
            prune_snapshots(self.config.wal_dir, keep=1)
        return path

    @classmethod
    def recover(
        cls,
        wal_dir: "str | Path",
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        trust_delegate: Optional[Callable[[dict], Dict[int, float]]] = None,
    ) -> "RatingEngine":
        """Rebuild an engine from a WAL directory.

        Loads the latest snapshot (if any) and re-processes the WAL
        suffix past its position through the full ingest path --
        yielding trust and suspicion state identical to an
        uninterrupted run.  How the covered *prefix* comes back
        depends on the backend:

        * **tiered** -- the prefix already sits in the sqlite cold
          tier.  Recovery rolls it back to exactly the snapshot
          position (dropping rows a crash may have committed past it;
          the replay re-inserts them under the same sequence numbers),
          adopts the product/rater registrations recorded there, and
          never reads pre-snapshot WAL segments -- which is why
          recovery time is proportional to the suffix, and why those
          segments can be garbage-collected at all.
        * **memory** -- the whole WAL is replayed (prefix into the
          store, suffix through ingest), so the full log must still
          exist; recovering a GC'd log with the memory backend fails
          loudly.

        With no snapshot the entire WAL is re-processed.  An empty or
        missing directory yields a fresh engine.

        Args:
            wal_dir: directory holding WAL segments and snapshots.
            config: configuration to use when no snapshot embeds one
                (a snapshot's embedded config always wins, since the
                replay must match how the state was produced).
            metrics: optional registry for the rebuilt engine.
            trust_delegate: cluster-worker trust delegate (see
                :class:`RatingEngine`); replayed flushes re-emit their
                digests through it, which the receiver deduplicates by
                digest seq.
        """
        wal_dir = Path(wal_dir)
        snapshot_path = latest_snapshot(wal_dir)
        state: Optional[dict] = None
        if snapshot_path is not None:
            state = read_snapshot(snapshot_path)
            config = ServiceConfig.from_dict(
                {**state["config"], "wal_dir": str(wal_dir)}
            )
        elif config is None:
            config = ServiceConfig(wal_dir=str(wal_dir))
        elif config.wal_dir != str(wal_dir):
            config = ServiceConfig.from_dict(
                {**config.to_dict(), "wal_dir": str(wal_dir)}
            )
        engine = cls(config=config, metrics=metrics, trust_delegate=trust_delegate)
        engine._recovering = True
        try:
            position = int(state["wal_position"]) if state is not None else 0
            assert engine.wal is not None
            # O(1) sanity checks from segment metadata -- no scan.
            if engine.wal.n_entries < position:
                raise ConfigurationError(
                    f"WAL has {engine.wal.n_entries} entries but snapshot "
                    f"{snapshot_path} covers {position}"
                )
            first_seq = engine.wal.first_seq
            if first_seq > position:
                raise ConfigurationError(
                    f"oldest WAL segment starts at {first_seq} but the "
                    f"latest snapshot covers only {position}; the log was "
                    f"garbage-collected past the snapshot"
                )
            suffix: Iterable[tuple]
            if engine._durable_store:
                # Prefix comes from the cold tier; roll it back to the
                # snapshot position and adopt the registrations.
                store = engine._store
                store.backend.truncate_from(position)
                for pid in store.backend.product_ids():
                    if not store.has_product(pid):
                        store.add_product(Product(product_id=pid, quality=0.5))
                for rid in store.backend.rater_ids():
                    if not store.has_rater(rid):
                        store.add_rater(
                            RaterProfile(rater_id=rid, rater_class=RaterClass.RELIABLE)
                        )
                # Lazy: the suffix is read only after _load_state below.
                suffix = replay_wal_meta(engine.wal.directory, start=position)
            else:
                if first_seq > 0:
                    raise ConfigurationError(
                        f"WAL prefix below {first_seq} was garbage-collected; "
                        f"the memory backend needs the full log to recover "
                        f"(use store_backend='tiered' or wal_gc=False)"
                    )
                tail: List[tuple] = []
                for seq, rating, meta in replay_wal_meta(engine.wal.directory):
                    if seq >= position:
                        tail.append((seq, rating, meta))
                    elif rating is not None:
                        # Prefix control rows record flushes the
                        # snapshot state already covers; only suffix
                        # ones are re-executed.
                        engine._add_to_store(rating, seq)
                suffix = tail
            if state is not None:
                engine._load_state(state)
            for seq, rating, meta in suffix:
                if rating is None:
                    engine._replay_control(meta)
                else:
                    engine._ingest(rating, log=False, seq=seq, wal_meta=meta)
        finally:
            engine._recovering = False
        return engine

    def storage_stats(self) -> dict:
        """Tier occupancy, WAL segment layout, and snapshot inventory.

        Also refreshes the ``repro_store_cold_ratings`` /
        ``repro_wal_segments`` gauges.
        """
        with self._lock:
            stats = self._store.backend.stats()
        self._m_store_cold.set(int(stats.get("cold_ratings", 0)))
        wal_info = None
        if self.wal is not None:
            segments = self.wal.segments()
            self._m_wal_segments.set(len(segments))
            wal_info = {
                "directory": str(self.wal.directory),
                "n_entries": self.wal.n_entries,
                "first_seq": self.wal.first_seq,
                "n_segments": len(segments),
                "segment_entries": self.wal.segment_entries,
                "segments": [
                    {"start": start, "file": path.name}
                    for start, path in segments
                ],
                "n_snapshots": len(list_snapshots(self.wal.directory)),
                "gc_enabled": bool(self.config.wal_gc),
            }
        return {**stats, "backend": self.config.store_backend, "wal": wal_info}

    def close(self) -> None:
        """Flush pending observations, then release storage and the WAL."""
        self.flush()
        with self._lock:
            self._store.close()
        if self.wal is not None:
            self.wal.close()
