"""Seeded inputs are identical across calls and change with the seed."""

from __future__ import annotations

import pytest

from benchmarks.e2e.inputs import (
    ARRIVALS,
    READ_TARGETS,
    marketplace_ratings,
    poisson_arrivals,
    stream_rng,
    zipf_targets,
)


def test_marketplace_is_a_function_of_the_seed():
    first = marketplace_ratings(3, 400)
    assert first == marketplace_ratings(3, 400)
    assert first != marketplace_ratings(4, 400)
    assert [r.rating_id for r in first] == list(range(400))
    assert [r.time for r in first] == sorted(r.time for r in first)


def test_marketplace_prefix_equals_the_full_year_prefix():
    """Generating fewer months must not change the ratings they hold."""
    year = marketplace_ratings(0, 21_299)
    assert marketplace_ratings(0, 2_000) == year[:2_000]
    with pytest.raises(ValueError):
        marketplace_ratings(0, 21_300)


def test_scaled_marketplace_has_three_times_the_raters():
    ratings = marketplace_ratings(1, 3_000, scale=3)
    assert max(r.rater_id for r in ratings) >= 1_600


def test_arrival_schedules_are_seeded():
    schedule = poisson_arrivals(stream_rng(5, ARRIVALS), 400.0, 2.0)
    assert schedule == poisson_arrivals(stream_rng(5, ARRIVALS), 400.0, 2.0)
    assert schedule != poisson_arrivals(stream_rng(6, ARRIVALS), 400.0, 2.0)
    assert all(0.0 <= t < 2.0 for t in schedule)
    assert schedule == sorted(schedule)
    assert 650 < len(schedule) < 950  # Poisson(800)


def test_read_targets_are_seeded_and_skewed():
    items = list(range(20))
    targets = zipf_targets(stream_rng(5, READ_TARGETS), items, 1.1, 2_000)
    assert targets == zipf_targets(stream_rng(5, READ_TARGETS), items, 1.1, 2_000)
    assert set(targets) <= set(items)
    hottest = max(targets.count(i) for i in items)
    assert hottest > 2_000 / 20 * 3  # far above a uniform share
