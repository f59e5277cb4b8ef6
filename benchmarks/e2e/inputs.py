"""Seeded inputs: the marketplace trace, arrival schedules, read targets.

Everything the system under test receives is derived here from the
benchmark's ``--seed``, so the same seed always yields the same
ratings, the same arrival times and the same read targets.  The
marketplace itself is drawn with ``numpy.random.default_rng(seed)``
(at seed 0 the full x1 year holds 21,299 ratings); arrivals and read
targets use their own streams, keyed by ``(seed, stream)``, so changing
a rate never changes the ratings.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.ratings.models import Rating
from repro.simulation.marketplace import MarketplaceConfig, generate_marketplace

__all__ = [
    "ARRIVALS",
    "READ_MIX",
    "READ_TARGETS",
    "marketplace_ratings",
    "poisson_arrivals",
    "stream_rng",
    "zipf_targets",
]

# Independent random streams derived from one seed.
ARRIVALS = 1
READ_MIX = 2
READ_TARGETS = 3

#: A lower bound on ratings per month per x1 population, used only to
#: decide how many months to generate (months are generated in order,
#: so the first m months of a world equal an m-month world).
_MIN_RATINGS_PER_MONTH = 1200


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one named input stream for ``seed``."""
    return np.random.default_rng([seed, stream])


def _generate(seed: int, scale: int, months: int) -> List[Rating]:
    config = MarketplaceConfig(
        n_reliable=400 * scale,
        n_careless=200 * scale,
        n_pc=200 * scale,
        n_months=months,
    )
    world = generate_marketplace(config, np.random.default_rng(seed))
    return sorted(
        world.store.all_ratings(), key=lambda r: (r.time, r.product_id, r.rater_id)
    )


def marketplace_ratings(seed: int, n: int, scale: int = 1) -> List[Rating]:
    """The first ``n`` ratings, by time, of the seeded Section IV marketplace.

    ``scale`` multiplies each rater population (x1 = 400 reliable, 200
    careless, 200 potentially collaborative raters).  Ratings are
    ordered by ``(time, product_id, rater_id)`` and renumbered
    ``0..n-1``, so ids do not depend on what else ran in the process.
    """
    months = min(12, math.ceil(n / (_MIN_RATINGS_PER_MONTH * scale)) + 1)
    ratings = _generate(seed, scale, months)
    if len(ratings) < n and months < 12:
        ratings = _generate(seed, scale, 12)
    if len(ratings) < n:
        raise ValueError(
            f"the x{scale} marketplace at seed {seed} has only "
            f"{len(ratings)} ratings, {n} requested"
        )
    return [
        Rating(
            rating_id=index,
            rater_id=r.rater_id,
            product_id=r.product_id,
            value=r.value,
            time=r.time,
            unfair=r.unfair,
        )
        for index, r in enumerate(ratings[:n])
    ]


def poisson_arrivals(rng: np.random.Generator, rate: float, seconds: float) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process of ``rate``/s on [0, seconds)."""
    times: List[float] = []
    now = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate, size=max(int(rate * seconds), 16))
        for gap in gaps:
            now += float(gap)
            if now >= seconds:
                return times
            times.append(now)


def zipf_targets(
    rng: np.random.Generator, items: Sequence[int], s: float, n: int
) -> List[int]:
    """``n`` draws from ``items`` with Zipf(``s``) popularity.

    Popularity ranks are a seeded permutation of ``items``, so which
    item is hot changes with the seed but not between calls.
    """
    ranked = [int(x) for x in rng.permutation(np.asarray(sorted(items)))]
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** s
    picks = rng.choice(len(ranked), size=n, p=weights / weights.sum())
    return [ranked[i] for i in picks]
