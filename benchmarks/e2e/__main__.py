"""Run the end-to-end benchmark: every workload, every metric, one report.

Usage, from the repository root::

    PYTHONPATH=src python -m benchmarks.e2e [--workload W] [--seed S]
        [--seconds N] [--trace] [--smoke] [--json out.json] [--line]

Prints, per workload, every end-to-end metric by name with its unit
and sample count and the correctness verdict.  ``--trace`` adds a
traced run of each workload: every per-layer metric plus the tracing
overhead (traced minus untraced, per end-to-end metric).  ``--smoke``
runs each workload for three seconds with one launch or replay.
``--json`` writes everything, stamped with provenance.

``--line`` is the form ``BENCHMARK.json`` runs (through ``run.py``):
one workload, one pass -- the traced pass alone with ``--trace`` --
then the provenance-stamped report as one JSON line, and last one
JSON object with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Its metrics are the gated end-to-end
metrics (``workloads.gated_metrics``), or with ``--trace`` the gated
per-layer metrics (``harness.GATED_LAYERS``).

Exit status: 0 when every run was correct and valid, 1 when a
correctness check failed, 3 when a run was invalid (the load generator
fell behind its schedule), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.e2e._provenance import provenance, warnings_for
from benchmarks.e2e.harness import (
    GATED_LAYERS,
    format_result,
    run_workload,
    stop_on_sigterm,
)
from benchmarks.e2e.workloads import WORKLOADS, Result, gated_metrics

ROOT = Path(__file__).resolve().parents[2]
SMOKE_SECONDS = 3.0


def _metrics(metrics) -> dict:
    return {name: metric.to_dict() for name, metric in metrics.items()}


def _entry(result: Result, layers: bool, overhead=None) -> dict:
    entry = {
        "correct": result.correct,
        "valid": not result.invalid,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": _metrics(result.metrics),
        "diagnostics": _metrics(result.diagnostics),
        "problems": result.problems,
        "invalid": result.invalid,
    }
    if result.correct:
        entry["gated"] = _metrics(gated_metrics(result))
    if layers:
        entry["layers"] = _metrics(result.layers)
    if overhead is not None:
        entry["overhead"] = overhead
    return entry


def _result_line(result: Result, trace: bool) -> dict:
    """The last line of a ``--line`` run; a failed run may lack metrics."""
    if trace:
        metrics = {n: result.layers[n] for n in GATED_LAYERS if n in result.layers}
    else:
        metrics = gated_metrics(result) if result.correct else {}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": m.value, "unit": m.unit} for n, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument("--line", action="store_true")
    args = parser.parse_args(argv)
    if args.line and args.workload is None:
        parser.error("--line needs --workload")
    stop_on_sigterm()
    stamp = provenance(ROOT, args.seed)
    for warning in warnings_for(stamp):
        print(f"warning: {warning}", file=sys.stderr)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    report = {
        "provenance": stamp,
        "settings": {"seconds": seconds, "smoke": args.smoke, "trace": args.trace},
        "workloads": {},
    }
    results = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = None
        if not (args.line and args.trace):
            result = run_workload(ROOT, name, args.seed, seconds, False, args.smoke)
        overhead = None
        if args.trace:
            traced = run_workload(ROOT, name, args.seed, seconds, True, args.smoke)
            if result is None:
                result = traced
            else:
                overhead = {
                    metric: traced.metrics[metric].value - value.value
                    for metric, value in result.metrics.items()
                    if metric in traced.metrics
                }
                result.layers = traced.layers
                result.problems.extend(f"traced run: {p}" for p in traced.problems)
                result.invalid.extend(f"traced run: {w}" for w in traced.invalid)
        print(format_result(result, overhead), flush=True)
        report["workloads"][name] = _entry(result, args.trace, overhead)
        results.append(result)
    if args.json_path:
        Path(args.json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.line:
        print(json.dumps(report, sort_keys=True))
        print(json.dumps(_result_line(results[0], args.trace)))
    if not all(result.correct for result in results):
        return 1
    if any(result.invalid for result in results):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
