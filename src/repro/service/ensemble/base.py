"""The online-detector ensemble protocol and suspicion combiners.

The serving tier originally hard-wired one detector family (the
paper's AR signal model) into the ingest path.  This module defines
the small protocol that makes serve-time detection pluggable:

* :class:`OnlineSuspicionSource` -- one streaming detector.  The
  engine calls :meth:`~OnlineSuspicionSource.observe` for every
  accepted rating (hot path: must be O(1)-ish and never raise on
  ordinary data) and :meth:`~OnlineSuspicionSource.flush` at every
  trust-batch boundary.  ``flush`` returns the per-rater **suspicion
  mass** accumulated since the previous flush: each individual rating
  a source charges contributes a level in ``[0, 1]`` (validated by
  :func:`unit_suspicion`), and a rater's mass is the sum over their
  charged ratings -- the same accounting Procedure 1 feeds Procedure 2
  with.  ``state_dict``/``load_state`` round-trip the bounded
  streaming state through snapshots so crash recovery reproduces the
  pre-crash ensemble bit-for-bit.
* Combiners -- :func:`combine_weighted_mean` and :func:`combine_max`
  merge the per-source flush masses into the single per-rater value
  handed to the trust manager.  With a single enabled source of
  weight 1 the weighted mean is exactly that source's mass, so an
  AR-only ensemble behaves identically to the pre-ensemble engine.

Sources are registered by name in
:data:`repro.service.ensemble.SOURCE_NAMES`; the engine instantiates
them from :class:`~repro.service.config.ServiceConfig`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.ratings.models import Rating

__all__ = [
    "OnlineSuspicionSource",
    "combine_weighted_mean",
    "combine_max",
    "unit_suspicion",
    "COMBINERS",
]


def unit_suspicion(suspicion: float) -> float:
    """Validate one rating's suspicion level lies in ``[0, 1]``.

    Every source charges individual ratings with a level from this
    domain; masses returned by :meth:`OnlineSuspicionSource.flush` are
    sums of validated levels.  Raises
    :class:`~repro.errors.ConfigurationError` outside the domain.
    """
    if not 0.0 <= suspicion <= 1.0:
        raise ConfigurationError(
            f"suspicion level must lie in [0, 1], got {suspicion}"
        )
    return float(suspicion)


class OnlineSuspicionSource(abc.ABC):
    """One pluggable serve-time suspicion detector.

    Subclasses set :attr:`name` (the config/metrics label) and
    implement the four protocol methods.  The optional
    :attr:`on_eviction` callback reports bounded-memory evictions
    (the engine wires it to the
    ``repro_ensemble_evictions_total{source=...}`` counter).

    Args:
        threshold: source-specific alarm threshold in ``[0, 1]``
            (its precise meaning is up to the subclass).
        score_every: run the (possibly expensive) scoring step only on
            every N-th flush; in between, :meth:`flush` returns no
            mass while cheap per-rating state keeps accumulating.
    """

    #: Registry/config/metrics label; subclasses override.
    name: str = "source"

    def __init__(self, threshold: float = 0.5, score_every: int = 1) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError(
                f"{self.name}: threshold must lie in [0, 1], got {threshold}"
            )
        if score_every < 1:
            raise ConfigurationError(
                f"{self.name}: score_every must be >= 1, got {score_every}"
            )
        self.threshold = float(threshold)
        self.score_every = int(score_every)
        self.n_evictions = 0
        self.on_eviction: Optional[Callable[[int], None]] = None

    def _record_evictions(self, count: int) -> None:
        """Tally ``count`` evictions and notify the engine hook."""
        if count <= 0:
            return
        self.n_evictions += count
        if self.on_eviction is not None:
            self.on_eviction(count)

    # -- protocol ----------------------------------------------------------

    @abc.abstractmethod
    def observe(self, rating: Rating) -> None:
        """Feed one accepted rating (engine hot path, engine lock held)."""

    @abc.abstractmethod
    def flush(self) -> Dict[int, float]:
        """Return and clear rater -> suspicion mass since the last flush."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """JSON-serializable bounded state (see module docstring)."""

    @abc.abstractmethod
    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; replaces current state."""

    def prune(self) -> None:
        """Drop stale bookkeeping after a flush (default: nothing)."""


def combine_weighted_mean(
    per_source: Mapping[str, Mapping[int, float]],
    weights: Mapping[str, float],
) -> Dict[int, float]:
    """Weight-averaged suspicion mass across sources.

    Every enabled source participates in the denominator (a source
    that did not mention a rater contributes 0 mass), so one noisy
    source cannot dominate just by being the only one to fire.  With a
    single source of weight 1 the result is bit-for-bit that source's
    mass, which is what keeps an AR-only ensemble identical to the
    pre-ensemble engine.
    """
    total_weight = sum(weights[name] for name in per_source)
    if total_weight <= 0.0:
        raise ConfigurationError("combined source weights must sum to > 0")
    combined: Dict[int, float] = {}
    for name, masses in per_source.items():
        weight = weights[name]
        for rater_id, mass in masses.items():
            combined[rater_id] = combined.get(rater_id, 0.0) + weight * mass
    return {rater_id: value / total_weight for rater_id, value in combined.items()}


def combine_max(
    per_source: Mapping[str, Mapping[int, float]],
    weights: Mapping[str, float],
) -> Dict[int, float]:
    """Most-alarmed-source-wins: the max of weighted per-source masses."""
    combined: Dict[int, float] = {}
    for name, masses in per_source.items():
        weight = weights[name]
        for rater_id, mass in masses.items():
            weighted = weight * mass
            if weighted > combined.get(rater_id, 0.0):
                combined[rater_id] = weighted
    return combined


#: Combiner name (the ``ensemble_combiner`` config value) -> function.
COMBINERS: Dict[str, Callable[..., Dict[int, float]]] = {
    "weighted_mean": combine_weighted_mean,
    "max": combine_max,
}
