"""Pluggable online detector ensemble for the serving tier.

Public surface:

* :class:`OnlineSuspicionSource` -- the protocol every serve-time
  detector implements (see :mod:`repro.service.ensemble.base`).
* The shipped sources: :class:`ARSuspicionSource` (the paper's AR
  signal model), :class:`CoRatingGraphSource` (incremental collusion
  graph), :class:`IterativeFilterSource` (online iterative filtering).
* :func:`build_sources` -- instantiate the sources a
  :class:`~repro.service.config.ServiceConfig` enables; the engine
  calls this once at construction.
* The combiners (:func:`combine_weighted_mean`, :func:`combine_max`,
  :data:`COMBINERS`) that merge per-source suspicion masses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import ConfigurationError
from repro.service.ensemble.ar_source import ARSuspicionSource
from repro.service.ensemble.base import (
    COMBINERS,
    OnlineSuspicionSource,
    combine_max,
    combine_weighted_mean,
    unit_suspicion,
)
from repro.service.ensemble.cograph import CoRatingGraphSource
from repro.service.ensemble.iterfilter import IterativeFilterSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.config import ServiceConfig

__all__ = [
    "OnlineSuspicionSource",
    "ARSuspicionSource",
    "CoRatingGraphSource",
    "IterativeFilterSource",
    "SOURCE_NAMES",
    "build_sources",
    "combine_weighted_mean",
    "combine_max",
    "unit_suspicion",
    "COMBINERS",
]

#: Names accepted by ``ServiceConfig.ensemble_sources``, in canonical
#: order.
SOURCE_NAMES = ("ar", "cograph", "iterfilter")


def build_sources(config: "ServiceConfig") -> Dict[str, OnlineSuspicionSource]:
    """Instantiate the sources ``config`` enables, in config order.

    Duck-types the config (it only reads attributes) so this module
    never imports :mod:`repro.service.config` at runtime -- the config
    module itself calls this for fail-fast validation.
    """
    thresholds = config.source_thresholds
    periods = config.source_periods
    sources: Dict[str, OnlineSuspicionSource] = {}
    for name in config.ensemble_sources:
        if name == "ar":
            sources[name] = ARSuspicionSource(
                order=config.detector_order,
                threshold=thresholds[name],
                window_size=config.detector_window,
                stride=config.detector_stride,
                method=config.detector_method,
                scale=config.detector_scale,
                incremental=config.detector_method == "covariance",
                max_raters_per_product=config.max_raters_per_product,
            )
        elif name == "cograph":
            sources[name] = CoRatingGraphSource(
                threshold=thresholds[name],
                score_every=periods[name],
                max_raters_per_product=config.max_raters_per_product,
            )
        elif name == "iterfilter":
            sources[name] = IterativeFilterSource(
                threshold=thresholds[name],
                score_every=periods[name],
            )
        else:  # pragma: no cover - config validation rejects these
            raise ConfigurationError(
                f"unknown ensemble source {name!r}; "
                f"choose from {list(SOURCE_NAMES)}"
            )
    return sources
