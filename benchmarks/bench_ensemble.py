"""Ensemble ingest-throughput benchmark: 1, 2, and 3 suspicion sources.

Prices what each additional online detector costs on the serving hot
path.  The same rating stream is pushed through three engines -- AR
only, AR + co-rating graph, and the full three-source ensemble -- and
the headline number is the full ensemble's slowdown relative to
AR-only.  The budget is a soft 2x floor: every source is bounded
(LRU rater sets, capped fanout and edge sets, windowed sweeps), so the
whole ensemble must stay within 2x of the single-detector engine.

One timing of one config swings by ~30% between runs on a small box,
so the configs are interleaved over :data:`ROUNDS` rounds (each round
runs all three, in a rotated order) and every number is a median with
its quartiles.  A slowdown is the median of the per-round ratios, so
drift across rounds cancels out of each ratio.

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
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

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
ROUNDS = 7

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


def _ingest_seconds(sources: Tuple[str, ...], stream: List[Rating]) -> float:
    engine = RatingEngine(_config(sources))
    gc.collect()  # the previous config's garbage is not this run's cost
    start = time.perf_counter()
    engine.submit_many(stream)
    engine.flush()
    seconds = time.perf_counter() - start
    engine.close()
    return seconds


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def run_bench(n_ratings: int = N_RATINGS) -> dict:
    stream = _stream(n_ratings)
    names = ["+".join(sources) for sources in CONFIGS]
    seconds: Dict[str, List[float]] = {name: [] for name in names}
    for round_index in range(ROUNDS):
        shift = round_index % len(CONFIGS)
        for sources in CONFIGS[shift:] + CONFIGS[:shift]:
            seconds["+".join(sources)].append(_ingest_seconds(sources, stream))
    stats: dict = {
        "n_ratings": n_ratings,
        "rounds": ROUNDS,
        "provenance": provenance(ROOT, STREAM_SEED),
        "sources": {},
    }
    baseline = seconds[names[0]]
    for sources, name in zip(CONFIGS, names):
        q1, median, q3 = _quartiles(seconds[name])
        r1, ratio, r3 = _quartiles(
            [run / base for run, base in zip(seconds[name], baseline)]
        )
        stats["sources"][name] = {
            "n_sources": len(sources),
            "seconds": round(median, 4),
            "seconds_quartiles": [round(q1, 4), round(q3, 4)],
            "ratings_per_second": round(n_ratings / median, 1),
            "slowdown_vs_ar": round(ratio, 3),
            "slowdown_quartiles": [round(r1, 3), round(r3, 3)],
        }
    full = stats["sources"][names[-1]]
    stats["full_ensemble_slowdown"] = full["slowdown_vs_ar"]
    stats["full_ensemble_slowdown_quartiles"] = full["slowdown_quartiles"]
    return stats


def _report(stats: dict) -> str:
    lines = [f"medians (quartiles) over {stats['rounds']} interleaved rounds"]
    for name, entry in stats["sources"].items():
        q1, q3 = entry["seconds_quartiles"]
        r1, r3 = entry["slowdown_quartiles"]
        lines.append(
            f"{entry['n_sources']} source(s) ({name:<22}) "
            f"{entry['seconds']:.3f}s ({q1:.3f}-{q3:.3f})  "
            f"{entry['ratings_per_second']:>9.0f} ratings/sec  "
            f"{entry['slowdown_vs_ar']:.2f}x ({r1:.2f}-{r3:.2f}) vs AR-only"
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
            f"AR-only (median of {stats['rounds']} rounds), above the "
            f"{max_slowdown}x budget"
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
