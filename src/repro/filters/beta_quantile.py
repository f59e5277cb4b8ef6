"""Majority-quantile rating filter (Whitby-Jøsang-Indulska 2004 style).

Feature extraction module I of the paper uses "the rating filtering
technique in [Whitby et al.] with sensitivity parameter 0.1": ratings
that fall outside the ``q`` and ``1 - q`` quantiles of the majority
opinion are identified as unfair and removed.

Two representations of the majority opinion are provided:

* ``"empirical"`` (default) -- the band is the empirical
  ``[q, 1 - q]`` quantile interval of the window's ratings, inclusive.
  This respects the point masses that clipped, quantized rating scales
  produce at the extreme levels (a level holding 20 % of the mass is
  the majority, not an outlier).
* ``"fitted"`` -- the band comes from a Beta distribution
  moment-matched to the ratings, the closest well-behaved analogue of
  Whitby's Beta machinery.  When the fitted Beta is U/J-shaped (a
  shape parameter below 1, i.e. the extremes are modes), the affected
  bound is released to the domain edge rather than declaring the mode
  an outlier.

Implementation note: Whitby's original per-rater formulation tests the
majority score against each *rater's own* Beta distribution.  With one
rating per rater -- the paper's scenarios -- that distribution is
dominated by its Beta(1, 1) prior, which re-centers every band at
``(1 + r) / 3`` and makes the iterated test cascade until most honest
ratings are removed; see DESIGN.md §5.  Both modes here keep the
method's *published* behaviour: they catch ratings far from the
majority, trim only a small tail of honest ratings, and are blind to
moderate-bias collusion (the motivation for the AR detector).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.filters.base import FilterResult, RatingFilter
from repro.ratings.stream import RatingStream

__all__ = ["BetaQuantileFilter", "moment_matched_beta"]

#: Sample variance below which the window is treated as consensus (no
#: meaningful majority band, nothing filtered).
_MIN_VARIANCE = 1e-6

_MODES = ("empirical", "fitted")


def moment_matched_beta(values: np.ndarray) -> tuple:
    """Fit Beta(alpha, beta) to samples in [0, 1] by moment matching.

    Returns:
        ``(alpha, beta)`` with both parameters clipped to at least 0.05
        so quantiles stay defined even for extreme samples.

    Raises:
        ConfigurationError: on empty input or samples outside [0, 1].
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ConfigurationError("cannot fit a Beta to zero samples")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ConfigurationError("Beta fitting needs samples in [0, 1]")
    mean = float(np.mean(values))
    var = float(np.var(values))
    max_var = mean * (1.0 - mean)
    if var <= _MIN_VARIANCE or max_var <= _MIN_VARIANCE:
        # Degenerate consensus; an (essentially) point-mass Beta.
        concentration = 1e6
    else:
        var = min(var, 0.999 * max_var)
        concentration = max_var / var - 1.0
    # Flooring the concentration (not the individual parameters)
    # preserves the fitted mean even for near-Bernoulli samples.
    concentration = max(concentration, 0.1)
    alpha = max(1e-3, mean * concentration)
    beta = max(1e-3, (1.0 - mean) * concentration)
    return alpha, beta


class BetaQuantileFilter(RatingFilter):
    """Filter ratings outside the majority's quantile band.

    Args:
        sensitivity: the quantile ``q`` (paper: 0.1).  At most ``2q`` of
            the window's mass is trimmed, so larger values filter more
            aggressively.
        mode: ``"empirical"`` or ``"fitted"`` (see module docs).
        min_ratings: windows smaller than this are passed through -- a
            handful of ratings carries no majority opinion.
    """

    def __init__(
        self,
        sensitivity: float = 0.1,
        mode: str = "empirical",
        min_ratings: int = 5,
    ) -> None:
        if not 0.0 < sensitivity < 0.5:
            raise ConfigurationError(
                f"sensitivity must lie in (0, 0.5), got {sensitivity}"
            )
        if mode not in _MODES:
            raise ConfigurationError(
                f"unknown mode {mode!r}; choose from {_MODES}"
            )
        if min_ratings < 1:
            raise ConfigurationError(f"min_ratings must be >= 1, got {min_ratings}")
        self.sensitivity = float(sensitivity)
        self.mode = mode
        self.min_ratings = int(min_ratings)

    def band(self, values: np.ndarray) -> tuple:
        """The acceptance interval implied by a set of ratings."""
        values = np.asarray(values, dtype=float).ravel()
        q = self.sensitivity
        if self.mode == "empirical":
            lo = float(np.quantile(values, q))
            hi = float(np.quantile(values, 1.0 - q))
            return lo, hi
        from scipy import stats

        alpha, beta = moment_matched_beta(values)
        # A shape parameter below 1 makes the corresponding extreme a
        # mode of the fit -- the extreme IS the majority there, so the
        # bound is released to the domain edge.
        lo = 0.0 if alpha < 1.0 else float(stats.beta.ppf(q, alpha, beta))
        hi = 1.0 if beta < 1.0 else float(stats.beta.ppf(1.0 - q, alpha, beta))
        return lo, hi

    def filter(self, stream: RatingStream) -> FilterResult:
        if len(stream) < self.min_ratings:
            return FilterResult(kept=stream, removed=RatingStream())
        values = stream.values
        if float(np.var(values)) <= _MIN_VARIANCE:
            # Unanimous window: no outliers by definition.
            return FilterResult(kept=stream, removed=RatingStream())
        lo, hi = self.band(values)
        removed_ids = frozenset(
            r.rating_id for r in stream if not lo <= r.value <= hi
        )
        return self._result(stream, removed_ids)
