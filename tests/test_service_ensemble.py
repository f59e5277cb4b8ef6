"""Tests for the online detector ensemble subsystem.

Covers the source protocol and combiners, the two new sources
(co-rating graph, iterative filtering), bounded-memory eviction, the
per-source threshold config, engine integration, and -- the
durability contract -- bit-for-bit crash recovery of ensemble state
under the 8-thread race pattern.
"""

from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detectors.online import OnlineARDetector
from repro.errors import ConfigurationError
from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig
from repro.service.wal import write_snapshot
from repro.service.ensemble import (
    COMBINERS,
    ARSuspicionSource,
    CoRatingGraphSource,
    IterativeFilterSource,
    OnlineSuspicionSource,
    build_sources,
    combine_max,
    combine_weighted_mean,
    unit_suspicion,
)

THREE_SOURCES = ("ar", "cograph", "iterfilter")


def ring_stream(
    n_products=6,
    n_honest=10,
    ring=(100, 101, 102, 103),
    rounds=6,
    seed=0,
    target=0.95,
):
    """Honest raters around 0.55 plus a colluding ring pushing ``target``.

    Every rater visits every product each round, so co-rating edges
    accumulate; the ring's values agree tightly while honest values
    carry noise.
    """
    rng = np.random.default_rng(seed)
    ratings = []
    rating_id = 0
    t = 0.0
    for _ in range(rounds):
        for pid in range(n_products):
            for rid in range(n_honest):
                value = float(np.clip(0.55 + rng.normal(0, 0.08), 0, 1))
                ratings.append(
                    Rating(rating_id, rid, pid, round(value, 3), time=t)
                )
                rating_id += 1
                t += 1.0
            for rid in ring:
                value = float(np.clip(target + rng.normal(0, 0.01), 0, 1))
                ratings.append(
                    Rating(rating_id, rid, pid, round(value, 3), time=t)
                )
                rating_id += 1
                t += 1.0
    return ratings


class TestProtocolAndCombiners:
    def test_unit_suspicion_validates(self):
        assert unit_suspicion(0.0) == 0.0
        assert unit_suspicion(1.0) == 1.0
        for bad in (-0.01, 1.01):
            with pytest.raises(ConfigurationError):
                unit_suspicion(bad)

    def test_weighted_mean_single_source_is_identity(self):
        mass = {1: 0.25, 2: 3.0}
        out = combine_weighted_mean({"ar": mass}, {"ar": 1.0})
        assert out == mass  # bit-for-bit: the AR-only compatibility hinge

    def test_weighted_mean_averages_over_all_enabled(self):
        per_source = {"a": {1: 1.0}, "b": {1: 0.0, 2: 2.0}}
        out = combine_weighted_mean(per_source, {"a": 1.0, "b": 1.0})
        # Source b contributed 0 for rater 1; denominator still 2.
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0)

    def test_weighted_mean_rejects_zero_total_weight(self):
        with pytest.raises(ConfigurationError):
            combine_weighted_mean({"a": {1: 1.0}}, {"a": 0.0})

    def test_max_combiner(self):
        per_source = {"a": {1: 1.0, 2: 0.2}, "b": {1: 0.4, 2: 0.9}}
        out = combine_max(per_source, {"a": 0.5, "b": 1.0})
        assert out[1] == pytest.approx(0.5)  # 0.5*1.0 > 1.0*0.4
        assert out[2] == pytest.approx(0.9)

    def test_combiner_registry(self):
        assert set(COMBINERS) == {"weighted_mean", "max"}


class TestConfigThresholds:
    def test_ar_threshold_default_and_override(self):
        assert ServiceConfig().source_thresholds == {"ar": 0.10}
        config = ServiceConfig(ensemble_thresholds=(0.3,))
        assert config.source_thresholds == {"ar": 0.3}

    def test_per_source_thresholds_override(self):
        config = ServiceConfig(
            ensemble_sources=THREE_SOURCES,
            ensemble_thresholds=(0.15, None, 0.6),
        )
        thresholds = config.source_thresholds
        assert thresholds["ar"] == 0.15
        assert thresholds["cograph"] == 0.5  # source default
        assert thresholds["iterfilter"] == 0.6

    def test_pre_ensemble_config_dict_still_loads(self):
        # A dict written before the ensemble existed: no ensemble_* keys.
        old = {"n_shards": 1, "batch_max_ratings": 8, "detector_window": 20}
        config = ServiceConfig.from_dict(old)
        assert config.ensemble_sources == ("ar",)
        assert config.source_thresholds == {"ar": 0.10}

    def test_from_dict_coerces_json_lists(self):
        config = ServiceConfig(
            ensemble_sources=THREE_SOURCES, ensemble_weights=(1.0, 2.0, 3.0)
        )
        data = config.to_dict()
        data["ensemble_sources"] = list(data["ensemble_sources"])
        data["ensemble_weights"] = list(data["ensemble_weights"])
        assert ServiceConfig.from_dict(data) == config

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(
                ensemble_sources=("ar", "cograph"), ensemble_weights=(1.0,)
            )

    def test_build_sources_in_config_order(self):
        config = ServiceConfig(ensemble_sources=("iterfilter", "ar"))
        assert list(build_sources(config)) == ["iterfilter", "ar"]


class TestBoundedMemory:
    def test_detector_lru_eviction(self):
        evictions = []
        detector = OnlineARDetector(
            order=2,
            window_size=8,
            stride=2,
            threshold=0.2,
            max_raters_per_product=10,
            on_eviction=evictions.append,
        )
        for i in range(50):
            detector.observe(Rating(i, i % 25, 0, 0.5, time=float(i)))
        assert len(detector._rater_by_position) <= 10
        assert detector.n_evictions == 40
        assert sum(evictions) == 40

    def test_detector_cap_validated(self):
        with pytest.raises(ConfigurationError):
            OnlineARDetector(order=2, window_size=8, max_raters_per_product=0)

    def test_cograph_product_lru_eviction(self):
        source = CoRatingGraphSource(max_raters_per_product=5)
        for rid in range(12):
            source.observe(Rating(rid, rid, 0, 0.5, time=float(rid)))
        assert len(source._products[0]) == 5
        assert source.n_evictions == 7

    def test_cograph_edge_cap(self):
        source = CoRatingGraphSource(max_raters_per_product=64, max_edges=10)
        # 8 raters x all pairs = 28 edges via repeated co-rating.
        t = 0.0
        for pid in range(3):
            for rid in range(8):
                source.observe(Rating(int(t), rid, pid, 0.5, time=t))
                t += 1.0
        assert len(source._edges) > 10
        source.flush()
        assert len(source._edges) <= 10

    def test_engine_eviction_metric(self):
        config = ServiceConfig(
            batch_max_ratings=1000,
            detector_window=12,
            detector_order=2,
            detector_stride=3,
            max_raters_per_product=5,
            ensemble_sources=("ar", "cograph"),
        )
        engine = RatingEngine(config)
        for i in range(60):
            engine.submit(Rating(i, i % 30, 0, 0.5, time=float(i)))
        total = sum(
            s["n_evictions"] for s in engine.ensemble_stats()["sources"].values()
        )
        assert total > 0
        metric = sum(
            engine.metrics.counter(
                "repro_ensemble_evictions_total", labels={"source": name}
            ).value
            for name in ("ar", "cograph")
        )
        assert metric == total


def _reference_trim(co_counts, max_edges):
    """The full-sort eviction ``_trim_edges`` must reproduce exactly."""
    overflow = len(co_counts) - max_edges
    ranked = sorted(co_counts.items(), key=lambda item: (item[1], item[0]))
    return {edge for edge, _ in ranked[: max(overflow, 0)]}


def _trimmed(co_counts, max_edges):
    """Edges ``_trim_edges`` evicts from a graph with these co-counts."""
    source = CoRatingGraphSource(max_edges=max_edges)
    source.load_state(
        {
            "products": {},
            "edges": [[a, b, count, 0] for (a, b), count in co_counts.items()],
            "counts": {},
            "since_score": 0,
        }
    )
    source._trim_edges()
    evicted = set(co_counts) - set(source._edges)
    assert source.n_evictions == len(evicted)
    return evicted


edge_keys = st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
    lambda edge: edge[0] < edge[1]
)


class TestTrimEdges:
    # Two edges of co-count 1, three of 2, one of 5: bucket boundaries
    # fall after 2 and 5 evictions.  Insertion order is not edge order,
    # so only the tie-break sort picks the right edges inside a bucket.
    GRAPH = {(2, 9): 1, (0, 2): 1, (1, 7): 2, (3, 4): 5, (1, 2): 2, (0, 1): 2}

    @pytest.mark.parametrize(
        "overflow",
        [
            1,  # overflow of 1: a single tie-broken edge from bucket 1
            2,  # the cut lands exactly on the bucket-1/bucket-2 boundary
            3,  # ties inside the cut bucket: one of three co-count-2 edges
            4,  # two of the three co-count-2 edges
            5,  # boundary again: buckets 1 and 2 whole
        ],
    )
    def test_matches_full_sort_at_cuts(self, overflow):
        max_edges = len(self.GRAPH) - overflow
        evicted = _trimmed(self.GRAPH, max_edges)
        assert len(evicted) == overflow
        assert evicted == _reference_trim(self.GRAPH, max_edges)

    def test_under_cap_evicts_nothing(self):
        assert _trimmed(self.GRAPH, len(self.GRAPH)) == set()

    @settings(max_examples=200, deadline=None)
    @given(
        co_counts=st.dictionaries(edge_keys, st.integers(1, 4), max_size=60),
        max_edges=st.integers(1, 60),
    )
    def test_matches_full_sort_reference(self, co_counts, max_edges):
        assert _trimmed(co_counts, max_edges) == _reference_trim(
            co_counts, max_edges
        )


class TestCoRatingGraphSource:
    def test_ring_members_charged_honest_not(self):
        source = CoRatingGraphSource(threshold=0.5)
        for rating in ring_stream():
            source.observe(rating)
        mass = source.flush()
        ring = {100, 101, 102, 103}
        assert ring <= set(mass), f"ring not fully charged: {sorted(mass)}"
        honest_mass = sum(mass.get(rid, 0.0) for rid in range(10))
        ring_mass = sum(mass[rid] for rid in ring)
        assert ring_mass > honest_mass

    def test_flush_clears_counts(self):
        source = CoRatingGraphSource(threshold=0.5)
        for rating in ring_stream(rounds=4):
            source.observe(rating)
        first = source.flush()
        assert first
        # No new ratings: nothing left to charge.
        assert source.flush() == {}

    def test_score_every_skips_flushes(self):
        source = CoRatingGraphSource(threshold=0.5, score_every=3)
        for rating in ring_stream(rounds=4):
            source.observe(rating)
        assert source.flush() == {}
        assert source.flush() == {}
        assert source.flush()  # third flush scores

    def test_state_roundtrip_bit_for_bit(self):
        stream = ring_stream(rounds=5)
        cut = len(stream) // 2
        source = CoRatingGraphSource(threshold=0.5)
        for rating in stream[:cut]:
            source.observe(rating)
        restored = CoRatingGraphSource(threshold=0.5)
        restored.load_state(source.state_dict())
        assert restored.state_dict() == source.state_dict()
        for rating in stream[cut:]:
            source.observe(rating)
            restored.observe(rating)
        assert restored.flush() == source.flush()
        assert restored.state_dict() == source.state_dict()


class _ReferenceCoRatingGraph(OnlineSuspicionSource):
    """A frozen copy of the co-rating graph source from before its
    scoring and trimming read maintained indexes: every scoring pass
    filters the whole edge set, and every trim re-buckets it."""

    name = "cograph"

    def __init__(
        self,
        threshold,
        score_every,
        agreement_eps,
        min_edge_weight,
        min_agreement,
        min_component_size,
        max_raters_per_product,
        co_fanout,
        max_edges,
    ):
        super().__init__(threshold=threshold, score_every=score_every)
        self.agreement_eps = agreement_eps
        self.min_edge_weight = min_edge_weight
        self.min_agreement = min_agreement
        self.min_component_size = min_component_size
        self.max_raters_per_product = max_raters_per_product
        self.co_fanout = co_fanout
        self.max_edges = max_edges
        self._products = {}
        self._edges = {}
        self._counts = {}
        self._since_score = 0

    def observe(self, rating):
        rid, value = rating.rater_id, rating.value
        raters = self._products.get(rating.product_id)
        if raters is None:
            raters = OrderedDict()
            self._products[rating.product_id] = raters
        if rid in raters:
            del raters[rid]
        else:
            linked = 0
            for other, other_value in reversed(raters.items()):
                edge = (rid, other) if rid < other else (other, rid)
                weights = self._edges.get(edge)
                if weights is None:
                    weights = [0, 0]
                    self._edges[edge] = weights
                weights[0] += 1
                if abs(value - other_value) <= self.agreement_eps:
                    weights[1] += 1
                linked += 1
                if linked >= self.co_fanout:
                    break
        raters[rid] = value
        if len(raters) > self.max_raters_per_product:
            raters.popitem(last=False)
            self._record_evictions(1)
        self._counts[rid] = self._counts.get(rid, 0) + 1

    def flush(self):
        self._since_score += 1
        if self._since_score < self.score_every:
            return {}
        self._since_score = 0
        mass = self._score_components()
        self._counts = {}
        self._trim_edges()
        return mass

    def _score_components(self):
        qualifying = [
            (edge, weights)
            for edge, weights in self._edges.items()
            if weights[0] >= self.min_edge_weight
            and weights[1] / weights[0] >= self.min_agreement
        ]
        if not qualifying:
            return {}
        parent = {}

        def find(node):
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        for (a, b), _ in qualifying:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        members = {}
        for node in parent:
            members.setdefault(find(node), []).append(node)
        edges_of = {}
        for (a, b), weights in qualifying:
            edges_of.setdefault(find(a), []).append(weights)
        mass = {}
        for root, nodes in members.items():
            n = len(nodes)
            if n < self.min_component_size:
                continue
            component_edges = edges_of.get(root, [])
            density = 2.0 * len(component_edges) / (n * (n - 1))
            agreement = sum(w[1] / w[0] for w in component_edges) / len(
                component_edges
            )
            score = min(1.0, density) * agreement
            if score < self.threshold:
                continue
            level = unit_suspicion(score)
            for rater_id in nodes:
                charged = self._counts.get(rater_id, 0)
                if charged:
                    mass[rater_id] = mass.get(rater_id, 0.0) + level * charged
        return mass

    def _trim_edges(self):
        overflow = len(self._edges) - self.max_edges
        if overflow <= 0:
            return
        buckets = {}
        for edge, weights in self._edges.items():
            buckets.setdefault(weights[0], []).append(edge)
        remaining = overflow
        for co_count in sorted(buckets):
            bucket = buckets[co_count]
            if len(bucket) > remaining:
                bucket = sorted(bucket)[:remaining]
            for edge in bucket:
                del self._edges[edge]
            remaining -= len(bucket)
            if remaining == 0:
                break
        self._record_evictions(overflow)

    def state_dict(self):
        return {
            "products": {
                str(pid): [[r, v] for r, v in raters.items()]
                for pid, raters in self._products.items()
            },
            "edges": [[a, b, w[0], w[1]] for (a, b), w in self._edges.items()],
            "counts": {str(k): v for k, v in self._counts.items()},
            "since_score": self._since_score,
            "n_evictions": self.n_evictions,
        }

    def load_state(self, state):
        raise NotImplementedError  # the reference never restores


# Small caps and few raters, products and values, so that trims run at
# most scoring passes, co-counts mix, and edges enter and leave the
# qualifying set.
cograph_params = st.fixed_dictionaries(
    {
        "threshold": st.sampled_from([0.0, 0.3, 0.5]),
        "score_every": st.integers(1, 3),
        "agreement_eps": st.sampled_from([0.0, 0.1]),
        "min_edge_weight": st.integers(1, 3),
        "min_agreement": st.sampled_from([0.0, 0.5, 0.75, 1.0]),
        "min_component_size": st.integers(2, 3),
        "max_raters_per_product": st.integers(2, 6),
        "co_fanout": st.integers(1, 4),
        "max_edges": st.integers(1, 12),
    }
)
# An op is a flush (None) or one rating (rater, product, value).
cograph_ops = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 7),
            st.integers(0, 4),
            st.sampled_from([0.1, 0.15, 0.5, 0.9]),
        ),
    ),
    max_size=120,
)


def _flush_view(source, mass):
    """Everything a flush must reproduce, in order."""
    return (
        list(mass.items()),
        list(source._edges),
        source.n_evictions,
        json.dumps(source.state_dict()),
    )


def _drive(source, ops, start=0):
    """Apply ``ops`` (rating ids from ``start``); one view per flush."""
    views = []
    for index, op in enumerate(ops, start):
        if op is None:
            views.append(_flush_view(source, source.flush()))
        else:
            rater, product, value = op
            source.observe(Rating(index, rater, product, value, time=float(index)))
    return views


class TestCoRatingGraphDifferential:
    """The indexed source against the frozen full-scan reference."""

    @settings(max_examples=300, deadline=None)
    @given(params=cograph_params, ops=cograph_ops)
    @example(  # an evicted edge that qualified must leave scoring too
        params={
            "threshold": 0.0,
            "score_every": 1,
            "agreement_eps": 0.0,
            "min_edge_weight": 1,
            "min_agreement": 0.0,
            "min_component_size": 2,
            "max_raters_per_product": 2,
            "co_fanout": 1,
            "max_edges": 1,
        },
        ops=[(0, 0, 0.1), (1, 0, 0.1), (2, 0, 0.1), None, (0, 0, 0.1)],
    )
    def test_every_flush_matches_the_full_scan(self, params, ops):
        ops = ops + [None]
        expected = _drive(_ReferenceCoRatingGraph(**params), ops)
        assert _drive(CoRatingGraphSource(**params), ops) == expected

    @settings(max_examples=150, deadline=None)
    @given(params=cograph_params, ops=cograph_ops, cut=st.integers(0, 121))
    @example(  # an edge born after the restore must sort after the loaded ones
        params={
            "threshold": 0.0,
            "score_every": 1,
            "agreement_eps": 0.0,
            "min_edge_weight": 1,
            "min_agreement": 0.0,
            "min_component_size": 2,
            "max_raters_per_product": 2,
            "co_fanout": 1,
            "max_edges": 1,
        },
        ops=[(0, 0, 0.1), (2, 0, 0.1), (3, 0, 0.1), (1, 0, 0.1)],
        cut=3,
    )
    def test_restore_mid_stream_continues_identically(self, params, ops, cut):
        ops = ops + [None]
        cut = min(cut, len(ops))
        uninterrupted = CoRatingGraphSource(**params)
        expected = _drive(uninterrupted, ops)
        first = CoRatingGraphSource(**params)
        before = _drive(first, ops[:cut])
        restored = CoRatingGraphSource(**params)
        restored.load_state(json.loads(json.dumps(first.state_dict())))
        after = _drive(restored, ops[cut:], start=cut)
        assert before + after == expected
        assert restored.state_dict() == uninterrupted.state_dict()


class TestIterativeFilterSource:
    def test_outlier_rater_charged(self):
        source = IterativeFilterSource(threshold=0.5)
        rng = np.random.default_rng(1)
        t = 0.0
        rating_id = 0
        for pid in range(4):
            for _ in range(12):
                for rid in range(6):
                    value = 0.6 + rng.normal(0, 0.03) if rid != 5 else 0.05
                    source.observe(
                        Rating(
                            rating_id,
                            rid,
                            pid,
                            float(np.clip(value, 0, 1)),
                            time=t,
                        )
                    )
                    rating_id += 1
                    t += 1.0
        mass = source.flush()
        assert 5 in mass
        assert all(mass.get(rid, 0.0) < mass[5] for rid in range(5))

    def test_state_roundtrip_bit_for_bit(self):
        stream = ring_stream(rounds=5, seed=7)
        cut = len(stream) // 3
        source = IterativeFilterSource(threshold=0.3)
        for rating in stream[:cut]:
            source.observe(rating)
        source.flush()  # persist some learned weights
        restored = IterativeFilterSource(threshold=0.3)
        restored.load_state(source.state_dict())
        for rating in stream[cut:]:
            source.observe(rating)
            restored.observe(rating)
        assert restored.flush() == source.flush()
        assert restored.state_dict() == source.state_dict()


class TestEngineIntegration:
    def make_engine(self, **overrides):
        base = dict(
            batch_max_ratings=16,
            detector_window=12,
            detector_order=2,
            detector_stride=3,
            ensemble_sources=THREE_SOURCES,
            ensemble_thresholds=(0.2, None, None),
        )
        base.update(overrides)
        return RatingEngine(ServiceConfig(**base))

    def test_three_source_engine_runs_and_charges(self):
        engine = self.make_engine()
        engine.submit_many(ring_stream())
        engine.flush()
        suspicion = engine.suspicion_table()
        assert suspicion, "ensemble charged nobody on a collusion stream"
        ring_mass = sum(suspicion.get(rid, 0.0) for rid in (100, 101, 102, 103))
        assert ring_mass > 0

    def test_ensemble_stats_shape(self):
        engine = self.make_engine()
        stats = engine.ensemble_stats()
        assert stats["combiner"] == "weighted_mean"
        assert list(stats["sources"]) == list(THREE_SOURCES)
        for entry in stats["sources"].values():
            for key in ("weight", "threshold", "period", "n_evictions"):
                assert key in entry
        assert engine.snapshot_stats()["ensemble"] == stats

    def test_flush_latency_and_suspicion_metrics_exist(self):
        engine = self.make_engine()
        engine.submit_many(ring_stream(rounds=2))
        engine.flush()
        for name in THREE_SOURCES:
            histogram = engine.metrics.histogram(
                "repro_ensemble_flush_seconds", labels={"source": name}
            )
            assert histogram.count > 0
        rendered = engine.metrics.render()
        assert 'repro_ensemble_suspicion{source="cograph"}' in rendered

    def test_max_combiner_engine(self):
        engine = self.make_engine(ensemble_combiner="max")
        engine.submit_many(ring_stream(rounds=3))
        engine.flush()
        assert engine.suspicion_table()

    def test_ar_only_suspicion_matches_trust_failures(self):
        """Default config: suspicion_table mirrors the AR charges."""
        engine = RatingEngine(
            ServiceConfig(
                batch_max_ratings=10_000,
                detector_window=12,
                detector_order=2,
                detector_stride=3,
                ensemble_thresholds=(0.2,),
            )
        )
        rng = np.random.default_rng(3)
        for i in range(150):
            value = float(
                np.clip(0.6 + 0.25 * math.sin(i / 7.0) + rng.normal(0, 0.05), 0, 1)
            )
            engine.submit(Rating(i, int(rng.integers(0, 10)), 0, round(value, 3), time=float(i)))
        engine.flush()
        suspicion = engine.suspicion_table()
        assert suspicion
        for rid, mass in suspicion.items():
            record = engine.trust_manager.record(rid)
            assert record.failures == pytest.approx(
                engine.config.trust_badness_weight * mass
            )


N_THREADS = 8
PER_THREAD = 100


def _thread_ratings(thread_id, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(PER_THREAD):
        value = 0.55 + 0.3 * math.sin((i + thread_id) / 9.0)
        value = float(np.clip(value + rng.normal(0, 0.05), 0, 1))
        out.append(
            Rating(
                rating_id=thread_id * PER_THREAD + i,
                rater_id=int(rng.integers(0, 12)),
                product_id=thread_id,
                value=round(value, 3),
                time=float(i),
            )
        )
    return out


def _ensemble_config(wal_dir):
    return ServiceConfig(
        batch_max_ratings=16,
        detector_window=12,
        detector_order=2,
        detector_stride=3,
        ensemble_sources=THREE_SOURCES,
        ensemble_thresholds=(0.2, None, None),
        trust_forgetting_factor=1.0,
        wal_dir=str(wal_dir),
    )


def _ensemble_state(engine):
    """Per-source state, for exact recovery comparison."""
    with engine._lock:
        return {name: source.state_dict() for name, source in engine._sources.items()}


class TestEnsembleCrashRecovery:
    def test_eight_thread_crash_recovery_bit_for_bit(self, tmp_path):
        """Concurrent 3-source ingest, then WAL replay: exact state match.

        Extends the race-test pattern: the live engine's trust table,
        suspicion table, AND every source's state_dict must be
        reproduced bit-for-bit by a single-threaded replay of its own
        WAL.
        """
        engine = RatingEngine(_ensemble_config(tmp_path / "live"))
        batches = [_thread_ratings(t, seed=100 + t) for t in range(N_THREADS)]
        barrier = threading.Barrier(N_THREADS)

        def worker(thread_id):
            barrier.wait()
            for rating in batches[thread_id]:
                engine.submit(rating)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine.flush()

        live_trust = engine.trust_table()
        live_suspicion = engine.suspicion_table()
        live_sources = _ensemble_state(engine)
        engine.close()

        recovered = RatingEngine.recover(
            tmp_path / "live", config=_ensemble_config(tmp_path / "live")
        )
        recovered.flush()
        assert recovered.trust_table() == live_trust
        assert recovered.suspicion_table() == live_suspicion
        assert _ensemble_state(recovered) == live_sources
        recovered.close()

    def test_kill_mid_flush_after_wal_append(self, tmp_path):
        """A rating logged but never applied must survive via replay.

        Simulates dying between the WAL append and the in-memory
        apply/flush: the abandoned engine's WAL (with one extra
        appended rating) is recovered and continued; an uninterrupted
        reference engine over the same total stream must match
        bit-for-bit.
        """
        stream = ring_stream(rounds=3, seed=11)
        cut = (len(stream) // 16) * 16 + 5  # mid-batch: pending state exists
        doomed = RatingEngine(_ensemble_config(tmp_path / "doomed"))
        for rating in stream[:cut]:
            doomed.submit(rating)
        # Crash point: the next rating reaches the WAL, not the engine.
        doomed.wal.append(stream[cut])
        doomed.wal.sync()
        doomed.wal.close()  # releases the owner lock, like a dead process
        del doomed  # no flush, no engine close -- the "kill"

        recovered = RatingEngine.recover(
            tmp_path / "doomed", config=_ensemble_config(tmp_path / "doomed")
        )
        for rating in stream[cut + 1 :]:
            recovered.submit(rating)
        recovered.flush()

        reference = RatingEngine(_ensemble_config(tmp_path / "reference"))
        for rating in stream:
            reference.submit(rating)
        reference.flush()

        assert recovered.trust_table() == reference.trust_table()
        assert recovered.suspicion_table() == reference.suspicion_table()
        assert _ensemble_state(recovered) == _ensemble_state(reference)
        recovered.close()
        reference.close()

    def test_snapshot_roundtrip_with_ensemble_state(self, tmp_path):
        stream = ring_stream(rounds=3, seed=5)
        cut = len(stream) * 2 // 3
        live = RatingEngine(_ensemble_config(tmp_path / "snap"))
        for rating in stream[:cut]:
            live.submit(rating)
        live.snapshot()
        for rating in stream[cut:]:
            live.submit(rating)
        live.flush()
        live_state = (
            live.trust_table(),
            live.suspicion_table(),
            _ensemble_state(live),
        )
        live.close()

        recovered = RatingEngine.recover(tmp_path / "snap")
        recovered.flush()
        assert (
            recovered.trust_table(),
            recovered.suspicion_table(),
            _ensemble_state(recovered),
        ) == live_state
        recovered.close()

    def test_version2_snapshot_is_refused(self, tmp_path):
        """A thread-sharded (version-2) snapshot is refused, not mis-loaded."""
        engine = RatingEngine(_ensemble_config(tmp_path / "live"))
        for rating in ring_stream(rounds=2, seed=9):
            engine.submit(rating)
        engine.flush()
        state = engine._state_dict()
        engine.close()
        # The version-2 layout: engine-wide keys at the top, the rest
        # split across a ``shards`` list.
        shard_keys = (
            "sources", "last_time", "pending_provided", "since_flush",
            "n_rejected", "n_evaluations", "n_flagged", "store_n_ratings",
        )
        shard = {key: state[key] for key in shard_keys}
        v2_state = {key: v for key, v in state.items() if key not in shard_keys}
        v2_state.update(version=2, shards=[shard, shard])

        fresh = RatingEngine(_ensemble_config(tmp_path / "fresh"))
        with pytest.raises(ConfigurationError, match="version 2"):
            fresh._load_state(v2_state)
        assert fresh.trust_table() == {}
        assert fresh.n_accepted == 0
        fresh.close()

        # Through recover(): a multi-shard config is refused up front.
        v2_state["config"] = {**v2_state["config"], "n_shards": 4}
        write_snapshot(tmp_path / "v2", v2_state)
        with pytest.raises(ConfigurationError, match="n_shards"):
            RatingEngine.recover(tmp_path / "v2")
