"""Meta-tests on the public API surface.

Guards the packaging hygiene a downstream user depends on: every name
in an ``__all__`` is importable, declared in the export table below and
documented in ``docs/API_GUIDE.md``, every public item carries a
docstring, the top-level package re-exports what the README promises,
and the experiment registry stays in sync with the CLI.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.signal",
    "repro.ratings",
    "repro.raters",
    "repro.attacks",
    "repro.filters",
    "repro.detectors",
    "repro.trust",
    "repro.aggregation",
    "repro.core",
    "repro.simulation",
    "repro.data",
    "repro.evaluation",
    "repro.experiments",
    "repro.presets",
    "repro.reporting",
    "repro.service",
    "repro.service.cluster",
    "repro.service.ensemble",
    "repro.devtools",
    "repro.devtools.analysis",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exports_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert not missing, f"{module_name}: missing docstrings on {missing}"


def test_every_submodule_has_a_module_docstring():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"module docstrings missing: {missing}"


def test_readme_promises_importable():
    # The names the README's quickstart and architecture table lean on.
    from repro import (  # noqa: F401
        ARModelErrorDetector,
        IllustrativeConfig,
        MarketplaceConfig,
        OnlineARDetector,
        TrustEnhancedRatingSystem,
        generate_illustrative,
        generate_marketplace,
        run_marketplace,
    )


def test_registry_names_are_cli_safe():
    from repro.experiments import REGISTRY

    for name in REGISTRY:
        assert name == name.lower()
        assert " " not in name

    # Every registry entry is runnable through the parser.
    from repro.cli import build_parser

    parser = build_parser()
    for name in REGISTRY:
        args = parser.parse_args(["run", name])
        assert args.experiment == name


def test_version_consistency():
    import tomllib

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.exists():  # installed without the source tree
        pytest.skip("source tree not available")
    data = tomllib.loads(pyproject.read_text())
    assert data["project"]["version"] == repro.__version__


API_GUIDE = Path(__file__).resolve().parents[1] / "docs" / "API_GUIDE.md"

# The exact public surface, module by module.  Adding an export means
# updating this table and the export index in docs/API_GUIDE.md; the
# test below checks both.
EXPECTED_EXPORTS = {
    "repro": [
        "ARModel",
        "ARModelErrorDetector",
        "BetaFunctionAggregator",
        "BetaQuantileFilter",
        "CamouflageCampaign",
        "ClusteringDetector",
        "CollusionCampaign",
        "DINOSAUR_PLANET",
        "DutyCycleCampaign",
        "ELEVEN_LEVEL",
        "EndorsementDetector",
        "EntropyChangeDetector",
        "FIVE_STAR",
        "IQRFilter",
        "IllustrativeConfig",
        "MarketplaceConfig",
        "MetricsRegistry",
        "ModifiedWeightedAverage",
        "NetflixTraceConfig",
        "NullFilter",
        "OnlineARDetector",
        "PipelineConfig",
        "PlainWeightedAverage",
        "Product",
        "RampCampaign",
        "RaterClass",
        "RaterProfile",
        "Rating",
        "RatingEngine",
        "RatingScale",
        "RatingStore",
        "RatingStream",
        "ReproError",
        "ServiceConfig",
        "SimpleAverage",
        "SubmitResult",
        "SunTrustModelAggregator",
        "SuspicionReport",
        "TEN_LEVEL",
        "TrustEnhancedRatingSystem",
        "TrustManager",
        "TrustManagerConfig",
        "TrustRecord",
        "WriteAheadLog",
        "ZScoreFilter",
        "__version__",
        "arburg",
        "arcov",
        "aryule",
        "beta_trust",
        "estimate_trace_statistics",
        "generate_illustrative",
        "generate_marketplace",
        "generate_netflix_trace",
        "inject_campaign",
        "monte_carlo",
        "rater_detection",
        "rating_detection",
        "required_colluders",
        "run_marketplace",
    ],
    "repro.aggregation": [
        "Aggregator",
        "BetaFunctionAggregator",
        "MedianAggregator",
        "ModifiedWeightedAverage",
        "PAPER_METHODS",
        "PlainWeightedAverage",
        "SimpleAverage",
        "SunTrustModelAggregator",
        "ThresholdedAverage",
        "TrimmedMeanAggregator",
        "as_arrays",
    ],
    "repro.attacks": [
        "AdaptiveCampaign",
        "CamouflageCampaign",
        "CollusionCampaign",
        "CollusionStrategy",
        "DutyCycleCampaign",
        "LARGE_BIAS",
        "MODERATE_BIAS",
        "RampCampaign",
        "TraceStatistics",
        "estimate_trace_statistics",
        "inject_campaign",
        "required_colluders",
    ],
    "repro.core": [
        "IntervalReport",
        "ProductIntervalReport",
        "TrustEnhancedRatingSystem",
    ],
    "repro.data": [
        "DINOSAUR_PLANET",
        "NetflixTraceConfig",
        "generate_netflix_trace",
    ],
    "repro.detectors": [
        "ARModelErrorDetector",
        "ClusteringDetector",
        "CollusionGroups",
        "CusumDetector",
        "EndorsementDetector",
        "EntropyChangeDetector",
        "OnlineARDetector",
        "SuspicionDetector",
        "SuspicionReport",
        "VarianceRatioDetector",
        "WindowVerdict",
        "build_cosuspicion_graph",
        "detect_collusion_groups",
        "endorsement_quality",
        "extract_groups",
        "two_means_1d",
    ],
    "repro.devtools": [
        "Baseline",
        "BaselineEntry",
        "Finding",
        "LintResult",
        "Rule",
        "SourceFile",
        "all_rules",
        "run_lint",
    ],
    "repro.devtools.analysis": [
        "AnalysisModel",
        "EffectEvent",
        "EffectRegistry",
        "FunctionEffects",
        "ModuleInfo",
        "default_effect_registry",
        "effect_summaries",
        "get_analysis",
    ],
    "repro.evaluation": [
        "AggregationErrors",
        "ConfusionCounts",
        "MonteCarloResult",
        "RaterDetectionStats",
        "RocCurve",
        "RocPoint",
        "Summary",
        "aggregation_errors",
        "any_suspicious",
        "calibrate_threshold",
        "interval_detected",
        "line_chart",
        "monte_carlo",
        "operating_point",
        "rater_detection",
        "rating_detection",
        "roc_from_scores",
        "sparkline",
        "summarize",
        "window_confusion",
    ],
    "repro.experiments": [
        "REGISTRY",
        "adaptive_attacks",
        "baselines",
        "collusion_groups",
        "detection500",
        "ensemble_zoo",
        "fig2_fig3",
        "fig4",
        "fig5_netflix",
        "forgetting",
        "individual_unfair",
        "marketplace_aggregation",
        "marketplace_detection",
        "sensitivity",
        "table1",
        "vouching",
        "whitewashing",
    ],
    "repro.filters": [
        "BetaQuantileFilter",
        "FilterResult",
        "IQRFilter",
        "NullFilter",
        "RatingFilter",
        "WindowedFilter",
        "ZScoreFilter",
    ],
    "repro.raters": [
        "CarelessRater",
        "DispositionalRater",
        "GaussianOpinionMixin",
        "HonestRater",
        "PotentialCollaborativeRater",
        "RandomRater",
        "Rater",
        "ReliableRater",
        "Type1CollaborativeRater",
        "Type2CollaborativeRater",
    ],
    "repro.ratings": [
        "ConstantQuality",
        "ELEVEN_LEVEL",
        "FIVE_STAR",
        "InMemoryBackend",
        "LinearRampQuality",
        "PiecewiseQuality",
        "Product",
        "RaterClass",
        "RaterProfile",
        "Rating",
        "RatingScale",
        "RatingStore",
        "RatingStoreBackend",
        "RatingStream",
        "TEN_LEVEL",
        "TieredRatingBackend",
        "fresh_rating_id",
        "nonhomogeneous_arrival_times",
        "poisson_arrival_times",
        "read_csv",
        "read_jsonl",
        "write_csv",
        "write_jsonl",
    ],
    "repro.service": [
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "OnlineSuspicionSource",
        "RatingEngine",
        "RatingServiceServer",
        "ServiceConfig",
        "SubmitResult",
        "WriteAheadLog",
        "latest_snapshot",
        "list_segments",
        "make_server",
        "prune_snapshots",
        "read_snapshot",
        "replay_wal",
        "serve",
        "wal_exists",
        "write_snapshot",
    ],
    "repro.service.cluster": [
        "ClusterCoordinator",
        "ConsistentHashRing",
        "recv_msg",
        "send_msg",
        "worker_main",
    ],
    "repro.service.ensemble": [
        "ARSuspicionSource",
        "COMBINERS",
        "CoRatingGraphSource",
        "IterativeFilterSource",
        "OnlineSuspicionSource",
        "SOURCE_NAMES",
        "build_sources",
        "combine_max",
        "combine_weighted_mean",
        "unit_suspicion",
    ],
    "repro.signal": [
        "ARModel",
        "ARSpectrum",
        "AR_METHODS",
        "CountWindower",
        "LevinsonResult",
        "LjungBoxResult",
        "SlidingCovarianceFitter",
        "TimeWindower",
        "Window",
        "ar_power_spectrum",
        "arburg",
        "arcov",
        "aryule",
        "autocorrelation_sequence",
        "fit_windows",
        "levinson_durbin",
        "ljung_box",
        "moving_average",
        "normalized_model_error",
        "remove_linear_trend",
        "remove_mean",
        "sample_autocorrelation",
        "spectral_flatness",
    ],
    "repro.simulation": [
        "AttackSchedule",
        "IllustrativeConfig",
        "IllustrativeTrace",
        "MarketplaceConfig",
        "MarketplaceRun",
        "MarketplaceWorld",
        "PipelineConfig",
        "VouchingConfig",
        "VouchingNetwork",
        "build_vouching_network",
        "evaluate_network",
        "generate_illustrative",
        "generate_marketplace",
        "run_marketplace",
    ],
    "repro.trust": [
        "BehaviourProfile",
        "ObservationBuffer",
        "RaterObservation",
        "RecommendationBuffer",
        "RecommendationGraph",
        "RecordMaintenance",
        "SYSTEM_NODE",
        "TrustManager",
        "TrustManagerConfig",
        "TrustRecord",
        "asymptotic_trust",
        "beta_trust",
        "binary_entropy",
        "concatenate",
        "detection_interval",
        "entropy_trust",
        "entropy_trust_inverse",
        "expected_trust_trajectory",
        "multipath",
    ],
}


@pytest.mark.parametrize("module_name", sorted(EXPECTED_EXPORTS))
def test_export_surface_is_exactly_declared(module_name):
    module = importlib.import_module(module_name)
    actual = sorted(getattr(module, "__all__", []))
    assert actual == EXPECTED_EXPORTS[module_name], (
        f"{module_name}.__all__ drifted from EXPECTED_EXPORTS; "
        "update this table and docs/API_GUIDE.md together"
    )
    guide = API_GUIDE.read_text(encoding="utf-8")
    undocumented = [
        name
        for name in EXPECTED_EXPORTS[module_name]
        if not re.search(r"\b" + re.escape(name) + r"\b", guide)
    ]
    assert not undocumented, (
        f"{module_name} exports {undocumented} missing from docs/API_GUIDE.md"
    )
