"""Tests for the dependency-free metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.service.metrics import SHARED_FAMILIES, MetricsRegistry


class TestCounter:
    def test_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Events.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing")


class TestSharedFamilies:
    def test_catalog_supplies_the_help_text(self):
        registry = MetricsRegistry()
        registry.counter("repro_ratings_accepted_total", "Ignored.")
        _, help_text = SHARED_FAMILIES["repro_ratings_accepted_total"]
        text = registry.render()
        assert f"# HELP repro_ratings_accepted_total {help_text}" in text
        assert "Ignored." not in text

    def test_wrong_type_for_a_shared_family_raises(self):
        with pytest.raises(ConfigurationError, match="shared histogram"):
            MetricsRegistry().counter("repro_wal_fsync_seconds")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.gauge("depth", labels={"shard": "0"})
        b = registry.gauge("depth", labels={"shard": "1"})
        a.set(1)
        b.set(2)
        assert a is not b
        assert registry.gauge("depth", labels={"shard": "0"}).value == 1


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        assert histogram.sum == pytest.approx(6.05)

    def test_timer(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t", buckets=(10.0,))
        with histogram.time():
            pass
        assert histogram.count == 1

    def test_empty_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=())


class TestRender:
    def test_help_and_type_lines(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Things counted.")
        registry.gauge("b", "A level.", labels={"shard": "3"}).set(7)
        text = registry.render()
        assert "# HELP a_total Things counted." in text
        assert "# TYPE a_total counter" in text
        assert 'b{shard="3"} 7' in text
        assert text.endswith("\n")

    def test_integer_formatting(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        assert "n 3" in registry.render()

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        assert registry.names() == ["aa", "zz"]

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
