"""Recovery-time benchmark: bounded replay vs full-history replay.

Prices what the tiered storage + segmented WAL buy at restart.  For a
range of total history sizes with a **fixed** uncovered WAL suffix,
it crashes an engine (drops it without flushing) and times
``RatingEngine.recover``:

* **tiered** -- the prefix lives in the sqlite cold tiers; recovery
  rolls them back to the snapshot position and re-ingests only the
  suffix.  Time should stay flat as history grows.
* **memory** -- the store can only be rebuilt by replaying the whole
  log, so recovery time grows linearly with history.

The flatness claim is the budget: with history growing 16x, tiered
recovery time may grow by at most ``--max-growth`` (sqlite metadata
scans grow slowly; the replay work does not grow at all).  Bit-for-bit
correctness of both paths is asserted in
``tests/test_service_recovery_crash.py``; this bench only prices them.

Also runs standalone without pytest::

    PYTHONPATH=src python benchmarks/bench_recovery.py --json BENCH_recovery.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # standalone `python benchmarks/bench_recovery.py`
    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}")

from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig

HISTORIES = (2_000, 8_000, 32_000)
SUFFIX = 1_000
SEGMENT_ENTRIES = 2_000
N_PRODUCTS = 8
N_RATERS = 50


def _make_stream(n: int) -> list:
    rng = np.random.default_rng(1234)
    ratings = []
    for i in range(n):
        ratings.append(
            Rating(
                rating_id=i,
                rater_id=int(rng.integers(0, N_RATERS)),
                product_id=i % N_PRODUCTS,
                value=round(float(np.clip(rng.normal(0.7, 0.1), 0.0, 1.0)), 3),
                time=float(i),
            )
        )
    return ratings


def _config(wal_dir: Path, backend: str) -> ServiceConfig:
    return ServiceConfig(
        wal_dir=str(wal_dir),
        store_backend=backend,
        wal_segment_entries=SEGMENT_ENTRIES,
        batch_max_ratings=4096,
        detector_window=12,
        detector_order=2,
        detector_stride=25,
        ensemble_thresholds=(0.2,),
    )


def _build_history(wal_dir: Path, backend: str, n_total: int, suffix: int) -> None:
    """Run an engine to ``n_total`` ratings, snapshotting so exactly
    ``suffix`` ratings stay uncovered, then crash it."""
    engine = RatingEngine(_config(wal_dir, backend))
    stream = _make_stream(n_total)
    engine.submit_many(stream[: n_total - suffix])
    engine.snapshot()
    engine.submit_many(stream[n_total - suffix :])
    engine.wal.close()  # crash: nothing after the snapshot is flushed
    del engine


def _time_recovery(wal_dir: Path, repeats: int = 3) -> float:
    """Best-of-N wall time for a full recover + close cycle."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        engine = RatingEngine.recover(wal_dir)
        elapsed = time.perf_counter() - start
        engine.close()
        best = min(best, elapsed)
    return best


def run_bench(histories=HISTORIES, suffix=SUFFIX) -> dict:
    rows = []
    workdir = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    try:
        for n_total in histories:
            row = {"history": n_total, "suffix": suffix}
            for backend in ("tiered", "memory"):
                wal_dir = workdir / f"{backend}-{n_total}"
                _build_history(wal_dir, backend, n_total, suffix)
                row[f"{backend}_recover_seconds"] = round(
                    _time_recovery(wal_dir), 4
                )
                shutil.rmtree(wal_dir)
            rows.append(row)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    smallest, largest = rows[0], rows[-1]
    history_growth = largest["history"] / smallest["history"]

    def growth(key: str) -> float:
        return round(largest[key] / smallest[key], 2)

    return {
        "suffix": suffix,
        "segment_entries": SEGMENT_ENTRIES,
        "history_growth": round(history_growth, 1),
        "rows": rows,
        "tiered_growth": growth("tiered_recover_seconds"),
        "memory_growth": growth("memory_recover_seconds"),
        "speedup_at_largest": round(
            largest["memory_recover_seconds"]
            / largest["tiered_recover_seconds"],
            2,
        ),
    }


def _report(stats: dict) -> str:
    lines = [
        f"{'history':>10} {'suffix':>8} {'tiered':>10} {'memory':>10}",
    ]
    for row in stats["rows"]:
        lines.append(
            f"{row['history']:>10} {row['suffix']:>8} "
            f"{row['tiered_recover_seconds']:>9.3f}s "
            f"{row['memory_recover_seconds']:>9.3f}s"
        )
    lines.append(
        f"history x{stats['history_growth']}: tiered recovery grew "
        f"x{stats['tiered_growth']}, memory grew x{stats['memory_growth']} "
        f"(tiered is {stats['speedup_at_largest']}x faster at the top end)"
    )
    return "\n".join(lines)


def check_budget(stats: dict, max_growth: float) -> list:
    """Budget violations for CI; empty when recovery stays flat."""
    problems = []
    if stats["tiered_growth"] > max_growth:
        problems.append(
            f"tiered recovery time grew x{stats['tiered_growth']} across a "
            f"x{stats['history_growth']} history increase (budget: "
            f"x{max_growth})"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", help="write the stats as a JSON artifact"
    )
    parser.add_argument(
        "--max-growth",
        type=float,
        default=None,
        help="fail (exit 1) when tiered recovery time grows more than "
        "this factor across the history sweep",
    )
    args = parser.parse_args(argv)

    stats = run_bench()
    emit("Recovery time vs history size (fixed WAL suffix)", _report(stats))
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
    if args.max_growth is not None:
        problems = check_budget(stats, args.max_growth)
        if problems:
            for problem in problems:
                print(f"budget violation: {problem}", file=sys.stderr)
            return 1
    return 0


def test_recovery_flatness_budget(benchmark):
    """Pytest entry: bounded recovery must actually be bounded."""
    stats = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    emit("Recovery time vs history size (fixed WAL suffix)", _report(stats))
    assert stats["tiered_growth"] < stats["memory_growth"]
    assert stats["speedup_at_largest"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
