"""Ensemble ingest-throughput benchmark: 1, 2, and 3 suspicion sources.

Prices what each additional online detector costs on the serving hot
path.  The same rating stream is pushed through three engines -- AR
only, AR + co-rating graph, and the full three-source ensemble -- and
the headline number is the full ensemble's slowdown relative to
AR-only.  The ISSUE budget is a soft 2x floor: every source is bounded
(LRU rater sets, capped fanout and edge sets, windowed sweeps), so the
whole ensemble must stay within 2x of the single-detector engine.

Also runs standalone without pytest (``make bench-ensemble`` rebuilds
the committed ``BENCH_ensemble.json``, stamped with where it ran)::

    PYTHONPATH=src python benchmarks/bench_ensemble.py \
        --json BENCH_ensemble.json --max-slowdown 2.0

The stream has only 200 raters, so the co-rating graph stays far below
its 50,000-edge cap and never trims: this prices the per-rating and
scoring work of each source, not the eviction path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # standalone `python benchmarks/bench_ensemble.py`
    sys.path.insert(0, str(ROOT))

from benchmarks.conftest import emit
from benchmarks.e2e._provenance import provenance
from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig

N_RATINGS = 20_000
N_PRODUCTS = 40
N_RATERS = 200
STREAM_SEED = 13

CONFIGS: Tuple[Tuple[str, ...], ...] = (
    ("ar",),
    ("ar", "cograph"),
    ("ar", "cograph", "iterfilter"),
)


def _stream(n: int = N_RATINGS) -> List[Rating]:
    rng = np.random.default_rng(STREAM_SEED)
    quality = rng.uniform(0.3, 0.8, size=N_PRODUCTS)
    ratings = []
    for i in range(n):
        pid = int(rng.integers(0, N_PRODUCTS))
        value = float(np.clip(quality[pid] + rng.normal(0.0, 0.1), 0, 1))
        ratings.append(
            Rating(
                rating_id=i,
                rater_id=int(rng.integers(0, N_RATERS)),
                product_id=pid,
                value=round(value, 3),
                time=float(i),
            )
        )
    return ratings


def _config(sources: Tuple[str, ...]) -> ServiceConfig:
    return ServiceConfig(
        batch_max_ratings=256,
        detector_window=12,
        detector_order=2,
        detector_stride=3,
        ensemble_sources=sources,
        ensemble_thresholds=tuple(
            0.2 if name == "ar" else None for name in sources
        ),
    )


def _ingest_seconds(sources: Tuple[str, ...], stream: List[Rating], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        engine = RatingEngine(_config(sources))
        start = time.perf_counter()
        engine.submit_many(stream)
        engine.flush()
        best = min(best, time.perf_counter() - start)
        engine.close()
    return best


def run_bench(n_ratings: int = N_RATINGS) -> dict:
    stream = _stream(n_ratings)
    stats: dict = {
        "n_ratings": n_ratings,
        "provenance": provenance(ROOT, STREAM_SEED),
        "sources": {},
    }
    baseline = None
    for sources in CONFIGS:
        seconds = _ingest_seconds(sources, stream)
        rps = n_ratings / seconds
        if baseline is None:
            baseline = rps
        stats["sources"]["+".join(sources)] = {
            "n_sources": len(sources),
            "seconds": round(seconds, 4),
            "ratings_per_second": round(rps, 1),
            "slowdown_vs_ar": round(baseline / rps, 3),
        }
    stats["full_ensemble_slowdown"] = stats["sources"][
        "+".join(CONFIGS[-1])
    ]["slowdown_vs_ar"]
    return stats


def _report(stats: dict) -> str:
    lines = []
    for name, entry in stats["sources"].items():
        lines.append(
            f"{entry['n_sources']} source(s) ({name:<22}) "
            f"{entry['seconds']:.3f}s  "
            f"{entry['ratings_per_second']:>9.0f} ratings/sec  "
            f"({entry['slowdown_vs_ar']:.2f}x vs AR-only)"
        )
    lines.append(
        f"full ensemble slowdown: {stats['full_ensemble_slowdown']:.2f}x "
        f"over {stats['n_ratings']} ratings"
    )
    return "\n".join(lines)


def check_budget(stats: dict, max_slowdown: float) -> list:
    """Budget violations for CI; empty when the ensemble stays cheap."""
    problems = []
    if stats["full_ensemble_slowdown"] > max_slowdown:
        problems.append(
            f"full ensemble ingest is {stats['full_ensemble_slowdown']}x "
            f"AR-only, above the {max_slowdown}x budget"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", help="write the stats as a JSON artifact"
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=None,
        help="fail (exit 1) when the 3-source slowdown exceeds this",
    )
    parser.add_argument(
        "--ratings", type=int, default=N_RATINGS, help="stream length"
    )
    args = parser.parse_args(argv)

    stats = run_bench(args.ratings)
    emit("Ensemble ingest throughput: 1 vs 2 vs 3 suspicion sources", _report(stats))
    if args.json:
        try:
            Path(args.json).write_text(
                json.dumps(stats, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.json}")
    if args.max_slowdown is not None:
        problems = check_budget(stats, args.max_slowdown)
        if problems:
            for problem in problems:
                print(f"budget violation: {problem}", file=sys.stderr)
            return 1
    return 0


def test_ensemble_throughput_budget(benchmark):
    """Pytest entry: the full ensemble stays within 2x of AR-only."""
    stats = benchmark.pedantic(lambda: run_bench(8_000), rounds=1, iterations=1)
    emit("Ensemble ingest throughput: 1 vs 2 vs 3 suspicion sources", _report(stats))
    assert stats["full_ensemble_slowdown"] <= 2.0


if __name__ == "__main__":
    raise SystemExit(main())
