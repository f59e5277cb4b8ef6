"""AR fast-path benchmark: streaming, batched, and cached-score reads.

Prices the three fast paths of this repo's AR pipeline against the
seed implementations they replaced (per-row Python design building +
``lstsq`` per fit; full re-aggregation per ``score()``):

* **cold fit** -- one ``arcov`` call on a detector-sized window
  (vectorized normal equations vs loop-built design + lstsq);
* **streaming refit** -- a window-50/stride-5 detector pass over a
  long stream (:class:`~repro.signal.sliding.SlidingCovarianceFitter`
  rank-1 updates vs refitting the buffer from scratch each time);
* **batch windows** -- every overlapping window of a stream
  (:func:`~repro.signal.sliding.fit_windows` stacked solves vs a
  per-window loop);
* **score reads** -- repeated ``RatingEngine.score()`` on a hot
  product (incremental aggregate cache vs full recompute).

Speedups are equivalence-checked in ``tests/test_signal_sliding.py``;
this bench only prices them, and CI enforces soft floors so a fast-path
regression fails the build.

Also runs standalone without pytest::

    PYTHONPATH=src python benchmarks/bench_ar_fastpath.py --json BENCH_ar_fastpath.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # standalone `python benchmarks/bench_ar_fastpath.py`
    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}")

from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig
from repro.signal import (
    ARModel,
    CountWindower,
    SlidingCovarianceFitter,
    arcov,
    fit_windows,
    normalized_model_error,
)

ORDER = 4
WINDOW = 50
STRIDE = 5


# -- the seed implementations (what the fast paths replaced) ----------------

def seed_arcov(x: np.ndarray, order: int) -> ARModel:
    """The replaced ``arcov``: per-row Python slicing, lstsq, and a
    second row build for the residual pass (verbatim seed structure)."""
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains NaN or infinite samples")
    p = order
    n = x.size
    design = np.stack(
        [x[p + i - 1 : i - 1 if i > 0 else None : -1][:p] for i in range(n - p)]
    )
    target = x[p:]
    solution, *_ = np.linalg.lstsq(design, -target, rcond=None)
    a = np.concatenate(([1.0], solution))
    rows = np.stack(
        [x[p + i - 1 : i - 1 if i > 0 else None : -1][:p] for i in range(n - p)]
    )
    residuals = x[p:] + rows @ a[1:]
    error_energy = float(np.dot(residuals, residuals))
    signal_energy = float(np.dot(x[p:], x[p:]))
    return ARModel(
        order=order,
        coefficients=np.asarray(a, dtype=float),
        error_energy=error_energy,
        signal_energy=signal_energy,
        normalized_error=normalized_model_error(error_energy, signal_energy),
        method="covariance",
        n_samples=n,
        residuals=residuals,
    )


def seed_streaming_pass(values: np.ndarray) -> int:
    """Seed online loop: rebuild the lstsq problem at every refit."""
    buffer: list = []
    since = 0
    fits = 0
    for value in values:
        buffer.append(value)
        if len(buffer) > WINDOW:
            buffer.pop(0)
        since += 1
        if len(buffer) == WINDOW and since >= STRIDE:
            since = 0
            seed_arcov(np.asarray(buffer), ORDER)
            fits += 1
    return fits


def fast_streaming_pass(values: np.ndarray) -> int:
    """Incremental online loop: rank-1 window slides, O(p^3) refits."""
    fitter = SlidingCovarianceFitter(order=ORDER, capacity=WINDOW)
    since = 0
    fits = 0
    for value in values:
        fitter.push(value)
        since += 1
        if fitter.full and since >= STRIDE:
            since = 0
            fitter.fit()
            fits += 1
    return fits


def seed_batch_pass(values: np.ndarray, windower) -> int:
    """Seed batch loop: one lstsq fit per window."""
    times = np.arange(values.size, dtype=float)
    fits = 0
    for window in windower.windows(times):
        if window.size <= 2 * ORDER:
            continue
        seed_arcov(window.values(values), ORDER)
        fits += 1
    return fits


# -- harness ----------------------------------------------------------------

def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _build_engine(n_ratings: int) -> RatingEngine:
    rng = np.random.default_rng(42)
    engine = RatingEngine(
        ServiceConfig(batch_max_ratings=10_000, detector_stride=25)
    )
    for i in range(n_ratings):
        engine.submit(
            Rating(
                rating_id=i,
                rater_id=int(rng.integers(0, 50)),
                product_id=0,
                value=round(float(np.clip(rng.normal(0.7, 0.1), 0, 1)), 3),
                time=float(i),
            )
        )
    return engine


def run_bench(stream_n: int = 3000, batch_n: int = 2000, score_n: int = 2000,
              score_reads: int = 200) -> dict:
    rng = np.random.default_rng(7)
    stream = np.clip(rng.normal(0.6, 0.15, size=stream_n), 0.0, 1.0)
    batch_values = np.clip(rng.normal(0.6, 0.15, size=batch_n), 0.0, 1.0)
    windower = CountWindower(size=WINDOW, step=STRIDE)

    window = stream[:WINDOW]
    cold_fast = _best_of(lambda: [arcov(window, ORDER) for _ in range(50)]) / 50
    cold_seed = _best_of(
        lambda: [seed_arcov(window, ORDER) for _ in range(50)]
    ) / 50

    n_refits = fast_streaming_pass(stream)  # warm-up + fit count
    stream_fast = _best_of(lambda: fast_streaming_pass(stream))
    stream_seed = _best_of(lambda: seed_streaming_pass(stream))

    n_windows = seed_batch_pass(batch_values, windower)
    batch_fast = _best_of(lambda: fit_windows(batch_values, ORDER, windower))
    batch_seed = _best_of(lambda: seed_batch_pass(batch_values, windower))

    engine = _build_engine(score_n)
    engine.score(0)  # populate the cache entry
    score_fast = _best_of(
        lambda: [engine.score(0) for _ in range(score_reads)]
    ) / score_reads
    score_seed = _best_of(
        lambda: [engine._score_uncached(0) for _ in range(score_reads)]
    ) / score_reads

    def ratio(seed: float, fast: float):
        return round(seed / fast, 2) if fast > 0 else None

    return {
        "order": ORDER,
        "window": WINDOW,
        "stride": STRIDE,
        "cold_fit_fast_us": round(cold_fast * 1e6, 2),
        "cold_fit_seed_us": round(cold_seed * 1e6, 2),
        "cold_fit_speedup": ratio(cold_seed, cold_fast),
        "stream_samples": stream_n,
        "stream_refits": n_refits,
        "stream_fast_seconds": round(stream_fast, 4),
        "stream_seed_seconds": round(stream_seed, 4),
        "stream_speedup": ratio(stream_seed, stream_fast),
        "batch_samples": batch_n,
        "batch_windows": n_windows,
        "batch_fast_seconds": round(batch_fast, 4),
        "batch_seed_seconds": round(batch_seed, 4),
        "batch_speedup": ratio(batch_seed, batch_fast),
        "score_ratings": score_n,
        "score_cached_us": round(score_fast * 1e6, 2),
        "score_uncached_us": round(score_seed * 1e6, 2),
        "score_speedup": ratio(score_seed, score_fast),
    }


def _report(stats: dict) -> str:
    return "\n".join(
        [
            f"cold fit (one {stats['window']}-sample window)"
            f"    {stats['cold_fit_seed_us']:.1f}us -> "
            f"{stats['cold_fit_fast_us']:.1f}us"
            f"  ({stats['cold_fit_speedup']}x)",
            f"streaming refit ({stats['stream_refits']} refits over "
            f"{stats['stream_samples']} samples)"
            f"   {stats['stream_seed_seconds']:.3f}s -> "
            f"{stats['stream_fast_seconds']:.3f}s"
            f"  ({stats['stream_speedup']}x)",
            f"batch windows ({stats['batch_windows']} windows over "
            f"{stats['batch_samples']} samples)"
            f"   {stats['batch_seed_seconds']:.3f}s -> "
            f"{stats['batch_fast_seconds']:.3f}s"
            f"  ({stats['batch_speedup']}x)",
            f"score() on {stats['score_ratings']} ratings"
            f"        {stats['score_uncached_us']:.1f}us -> "
            f"{stats['score_cached_us']:.1f}us"
            f"  ({stats['score_speedup']}x)",
        ]
    )


def check_budget(stats: dict, min_stream: float, min_batch: float) -> list:
    """Budget violations for CI; empty when the fast paths hold up."""
    problems = []
    if stats["stream_speedup"] is not None and stats["stream_speedup"] < min_stream:
        problems.append(
            f"streaming speedup {stats['stream_speedup']}x is below the "
            f"{min_stream}x floor"
        )
    if stats["batch_speedup"] is not None and stats["batch_speedup"] < min_batch:
        problems.append(
            f"batch speedup {stats['batch_speedup']}x is below the "
            f"{min_batch}x floor"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", help="write the stats as a JSON artifact"
    )
    parser.add_argument(
        "--min-stream-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the streaming refit speedup is below this",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the batch window speedup is below this",
    )
    args = parser.parse_args(argv)

    stats = run_bench()
    emit("AR fast paths: seed vs incremental/batched/cached", _report(stats))
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
    if args.min_stream_speedup is not None or args.min_batch_speedup is not None:
        problems = check_budget(
            stats,
            args.min_stream_speedup or 0.0,
            args.min_batch_speedup or 0.0,
        )
        if problems:
            for problem in problems:
                print(f"budget violation: {problem}", file=sys.stderr)
            return 1
    return 0


def test_ar_fastpath_budget(benchmark):
    """Pytest entry: the fast paths must actually be faster."""
    stats = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    emit("AR fast paths: seed vs incremental/batched/cached", _report(stats))
    assert stats["stream_speedup"] > 1.0
    assert stats["batch_speedup"] > 1.0
    assert stats["score_speedup"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
