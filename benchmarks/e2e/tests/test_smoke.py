"""``--smoke --trace`` runs every workload and emits every named metric with its unit;
``--line`` ends with the one-object result line ``BENCHMARK.json`` reads."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.harness import GATED_LAYERS
from benchmarks.e2e.layers import LAYER_METRICS
from benchmarks.e2e.workloads import E2E_METRICS, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


def _run(args, cwd=ROOT, timeout=600):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )


def test_smoke_run_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = _run(["-m", "benchmarks.e2e", "--smoke", "--trace", "--json", str(out)])
    # 3 marks a run whose load generator fell behind: timings void, outputs checked
    assert done.returncode in (0, 3), done.stdout[-4000:] + done.stderr[-4000:]
    report = json.loads(out.read_text())
    assert report["provenance"]["seed"] == 0
    assert set(report["workloads"]) == set(WORKLOADS)
    emitted_layers = set()
    for name, entry in report["workloads"].items():
        assert entry["correct"], entry["problems"]
        for metric, (unit, owners) in E2E_METRICS.items():
            if name in owners:
                assert entry["metrics"][metric]["unit"] == unit, (name, metric)
                assert metric in entry["overhead"]
        assert set(entry["gated"]) == {"setup_s", "median_ms", "rss_mb"}
        for metric, value in entry["layers"].items():
            assert value["unit"] == LAYER_METRICS[metric]
            emitted_layers.add(metric)
        assert set(GATED_LAYERS) <= set(entry["layers"]), name
    assert emitted_layers == set(LAYER_METRICS)


def test_line_mode_ends_with_the_result_object():
    done = _run(
        ["-m", "benchmarks.e2e", "--smoke", "--line", "--workload", "replay_cluster", "--seed", "2"]
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    *_, report_line, result_line = done.stdout.strip().splitlines()
    report = json.loads(report_line)
    assert report["provenance"]["seed"] == 2
    assert report["workloads"]["replay_cluster"]["valid"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "median_ms", "rss_mb"}


def test_run_py_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".e2e_work", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(
        ["benchmarks/e2e/run.py", "--workload", "ingest", "--seed", "1", "--trace", "0"],
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
