"""The percentile helper's at-least-ten-beyond rule."""

from __future__ import annotations

import pytest

from benchmarks.e2e.stats import MIN_BEYOND, percentile, tail, timing_pair


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert tail(values) == ("p99", 990.0)
    assert len([v for v in values if v > 990.0]) == MIN_BEYOND


def test_tail_steps_down_when_p99_rests_on_too_few_samples():
    values = list(range(1, 201))  # a p99 would rest on two samples
    assert tail(values) == ("p95", 190.0)


def test_tail_refuses_when_even_the_median_lacks_samples():
    assert tail(list(range(19))) is None
    assert tail(list(range(20))) == ("p50", 9.0)


def test_p999_survives_binary_rounding_of_its_rank():
    values = list(range(10_000))
    assert tail(values, 99.9) == ("p999", 9989.0)
    assert tail(values[:-1], 99.9)[0] == "p99"


def test_tail_never_exceeds_the_percentile_asked_for():
    assert tail(list(range(100_000)), 95.0)[0] == "p95"


def test_percentile_is_nearest_rank_and_rejects_empty_samples():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_timing_pair_scales_and_labels():
    mid, top = timing_pair([0.001] * 150 + [0.002] * 50, 1e3, "ms")
    assert (mid.value, mid.unit, mid.n) == (1.0, "ms", 200)
    assert (top.value, top.label) == (2.0, "p95")
    assert timing_pair([0.001] * 5, 1e3, "ms")[1] is None
    assert timing_pair([], 1e3, "ms") == (None, None)
