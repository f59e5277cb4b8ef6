"""repro -- trust-enhanced online rating aggregation with AR fraud detection.

A complete reproduction of Yang, Sun, Ren & Yang, *Building Trust in
Online Rating Systems Through Signal Modeling* (ICDCS 2007): the AR
signal-modeling detector for collaborative rating fraud, the
trust-enhanced aggregation pipeline, the literature baselines it is
compared against, and the simulations that evaluate all of it.

Quick start::

    import numpy as np
    from repro import (
        IllustrativeConfig, generate_illustrative, ARModelErrorDetector,
    )

    trace = generate_illustrative(IllustrativeConfig(), np.random.default_rng(0))
    detector = ARModelErrorDetector(threshold=0.10)
    report = detector.detect(trace.attacked)
    print(len(report.suspicious_verdicts), "suspicious windows")

See the ``examples/`` directory for full scenarios and ``repro list``
on the command line for the paper's experiments.
"""

from importlib import import_module

from repro._version import __version__

# Public name -> defining module.  Names resolve on first attribute
# access (PEP 562), so ``import repro`` -- and every ``repro.service``
# process, which imports the package first -- stays numpy-only until a
# caller asks for the research stack (scipy, networkx, simulations).
_EXPORTS = {
    name: module
    for module, names in {
        "repro.aggregation": (
            "BetaFunctionAggregator",
            "ModifiedWeightedAverage",
            "PlainWeightedAverage",
            "SimpleAverage",
            "SunTrustModelAggregator",
        ),
        "repro.attacks": (
            "CamouflageCampaign",
            "CollusionCampaign",
            "DutyCycleCampaign",
            "RampCampaign",
            "estimate_trace_statistics",
            "inject_campaign",
            "required_colluders",
        ),
        "repro.core": ("TrustEnhancedRatingSystem",),
        "repro.data": (
            "DINOSAUR_PLANET",
            "NetflixTraceConfig",
            "generate_netflix_trace",
        ),
        "repro.detectors": (
            "ARModelErrorDetector",
            "OnlineARDetector",
            "ClusteringDetector",
            "EndorsementDetector",
            "EntropyChangeDetector",
            "SuspicionReport",
        ),
        "repro.errors": ("ReproError",),
        "repro.evaluation": ("monte_carlo", "rater_detection", "rating_detection"),
        "repro.filters": (
            "BetaQuantileFilter",
            "IQRFilter",
            "NullFilter",
            "ZScoreFilter",
        ),
        "repro.ratings": (
            "ELEVEN_LEVEL",
            "FIVE_STAR",
            "TEN_LEVEL",
            "Product",
            "RaterClass",
            "RaterProfile",
            "Rating",
            "RatingScale",
            "RatingStore",
            "RatingStream",
        ),
        "repro.signal": ("ARModel", "arburg", "arcov", "aryule"),
        "repro.simulation": (
            "IllustrativeConfig",
            "MarketplaceConfig",
            "PipelineConfig",
            "generate_illustrative",
            "generate_marketplace",
            "run_marketplace",
        ),
        "repro.trust": (
            "TrustManager",
            "TrustManagerConfig",
            "TrustRecord",
            "beta_trust",
        ),
        "repro.service": (
            "MetricsRegistry",
            "RatingEngine",
            "ServiceConfig",
            "SubmitResult",
            "WriteAheadLog",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
