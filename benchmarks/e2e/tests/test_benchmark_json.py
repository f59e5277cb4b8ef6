"""``BENCHMARK.json`` names exactly what ``run.py`` reports."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e.harness import GATED_LAYERS
from benchmarks.e2e.layers import LAYER_METRICS
from benchmarks.e2e.stats import Metric
from benchmarks.e2e.workloads import E2E_METRICS, WORKLOADS, Result, gated_metrics

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_the_gated_layers():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == {name: LAYER_METRICS[name] for name in GATED_LAYERS}


def test_end_to_end_metrics_match_what_every_workload_reports():
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        result = Result(workload)
        for name, (unit, owners) in E2E_METRICS.items():
            if workload in owners:
                result.metrics[name] = Metric(1.0, unit)
        gated = gated_metrics(result)
        assert {name: m.unit for name, m in gated.items()} == listed, workload


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
