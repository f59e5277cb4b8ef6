"""Running workloads and reporting their results (for ``__main__``)."""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e.layers import LAYER_METRICS
from benchmarks.e2e.proc import Workspace
from benchmarks.e2e.stats import Metric
from benchmarks.e2e.workloads import E2E_METRICS, WORKLOADS, Result, Run

__all__ = [
    "GATED_LAYERS",
    "format_result",
    "run_workload",
    "stop_on_sigterm",
]

#: Per-layer metrics every workload produces in a traced run (the
#: layers all four paths share); the others appear where their layer
#: is on the workload's path.  ``BENCHMARK.json`` lists the same names
#: under ``per_layer`` (checked by ``tests/test_benchmark_json.py``).
GATED_LAYERS = (
    "engine.submit_p50_us",
    "engine.submit_p99_us",
    "engine.busy_frac",
    "engine.flushes_per_1k",
    "store.add_p50_us",
    "ensemble.ar.observe_p50_us",
    "ensemble.ar.flush_total_s",
    "detector.refits_per_rating",
    "trust.update_p50_us",
    "trust.updates",
    "wal.worker.append_p50_us",
    "wal.fsync_p50_us",
    "wal.fsyncs_per_rating",
    "wal.bytes_per_rating",
    "rss.coordinator_mb",
)


def stop_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so cleanup (``finally``) still runs."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def run_workload(
    root: Path, name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Result:
    """Run one workload in a fresh workspace, removed afterwards."""
    with Workspace(root) as workspace:
        result = WORKLOADS[name](Run(root, workspace, seed, seconds, trace, smoke))
    if trace:
        for metric in GATED_LAYERS:
            if metric not in result.layers:
                result.problems.append(f"traced run produced no {metric}")
    return result


def _line(name: str, metric: Metric) -> str:
    detail = []
    if metric.n is not None:
        detail.append(f"n={metric.n}")
    if metric.label is not None:
        detail.append(f"at {metric.label}")
    suffix = f"  ({', '.join(detail)})" if detail else ""
    return f"  {name:<36} {metric.value:>14.4f} {metric.unit:<6}{suffix}"


def format_result(result: Result, overhead: Optional[Dict[str, float]] = None) -> str:
    """Human-readable report of one workload run."""
    lines: List[str] = [f"== {result.workload} =="]
    for name in E2E_METRICS:
        if name in result.metrics:
            lines.append(_line(name, result.metrics[name]))
    for name, metric in result.diagnostics.items():
        lines.append(_line(f"({name})", metric))
    if result.layers:
        lines.append("  per layer:")
        for name in LAYER_METRICS:
            if name in result.layers:
                lines.append(_line(name, result.layers[name]))
    if overhead:
        lines.append("  tracing overhead (traced - untraced):")
        for name, delta in overhead.items():
            lines.append(f"  {name:<36} {delta:>+14.4f} {E2E_METRICS[name][0]}")
    lines.append(
        f"  correct: {'yes' if result.correct else 'NO'} "
        f"(attempted {result.attempted}, failed {result.failed})"
    )
    lines.extend(f"  problem: {p}" for p in result.problems[:20])
    lines.extend(f"  invalid run: {reason}" for reason in result.invalid)
    return "\n".join(lines)
