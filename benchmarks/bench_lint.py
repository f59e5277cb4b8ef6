"""Lint engine cold-vs-warm benchmark with a CI warm-cache budget.

The incremental cache's value proposition is that an unchanged tree
costs almost nothing to re-lint.  This bench prices that claim on the
real ``src/`` tree: one cold run (empty cache), one warm run (full
hit), and two incremental runs -- one after touching a leaf module
(small import cone), one after touching ``service/wal.py`` (the
persistence tier, whose edit re-runs the interprocedural effect
rules over its whole import cone).
The warm run must re-analyze zero files; CI additionally enforces a
wall-clock budget so a cache regression fails the build instead of
silently slowing every push.

Also runs standalone without pytest::

    PYTHONPATH=src python benchmarks/bench_lint.py --json lint-bench.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # standalone `python benchmarks/bench_lint.py`
    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}")

from repro.devtools.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
# A leaf module with a small import cone: touching it should
# invalidate only itself plus its few dependents, not the tree.
TOUCH_TARGET = "src/repro/signal/detrend.py"
# A persistence-tier module: touching it re-runs the effect-summary
# rules (DP/SD) over its import cone -- the expensive end of
# the incremental spectrum, priced separately so a regression in the
# interprocedural pass shows up here rather than in the leaf number.
SERVICE_TOUCH_TARGET = "src/repro/service/wal.py"


def _timed_run(cache_dir: Path):
    start = time.perf_counter()
    result = run_lint(
        [REPO_ROOT / "src"],
        project_root=REPO_ROOT,
        baseline_path=REPO_ROOT / ".lint-baseline.json",
        cache_dir=cache_dir,
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def _touched_run(cache_dir: Path, relpath: str):
    """Append a comment to ``relpath``, re-lint, restore the file."""
    target = REPO_ROOT / relpath
    original = target.read_text(encoding="utf-8")
    try:
        target.write_text(original + "\n# bench touch\n", encoding="utf-8")
        return _timed_run(cache_dir)
    finally:
        target.write_text(original, encoding="utf-8")


def run_bench(touch: bool = True) -> dict:
    """Cold, warm, and (optionally) incremental lint over src/."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-lint-"))
    cache_dir = workdir / "lint-cache"
    try:
        cold, cold_s = _timed_run(cache_dir)
        warm, warm_s = _timed_run(cache_dir)
        stats = {
            "files_total": cold.files_total,
            "cold_seconds": round(cold_s, 4),
            "cold_reanalyzed": len(cold.reanalyzed),
            "warm_seconds": round(warm_s, 4),
            "warm_reanalyzed": len(warm.reanalyzed),
            "warm_cache_status": warm.cache_status,
            "warm_speedup": round(cold_s / warm_s, 2) if warm_s else None,
            "active_findings": len(warm.active_findings()),
        }
        if touch:
            incr, incr_s = _touched_run(cache_dir, TOUCH_TARGET)
            stats.update(
                incremental_seconds=round(incr_s, 4),
                incremental_reanalyzed=len(incr.reanalyzed),
                incremental_cache_status=incr.cache_status,
            )
            # Re-warm so the service touch is measured against a clean
            # cache, not the leaf touch's residue.
            _timed_run(cache_dir)
            svc, svc_s = _touched_run(cache_dir, SERVICE_TOUCH_TARGET)
            stats.update(
                service_touch_seconds=round(svc_s, 4),
                service_touch_reanalyzed=len(svc.reanalyzed),
                service_touch_cache_status=svc.cache_status,
            )
        return stats
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(stats: dict) -> str:
    lines = [
        f"files linted            {stats['files_total']}",
        f"cold run                {stats['cold_seconds']:.3f}s"
        f"  ({stats['cold_reanalyzed']} analyzed)",
        f"warm run                {stats['warm_seconds']:.3f}s"
        f"  ({stats['warm_reanalyzed']} analyzed,"
        f" {stats['warm_cache_status']})",
        f"warm speedup            {stats['warm_speedup']}x",
    ]
    if "incremental_seconds" in stats:
        lines.append(
            f"touch one leaf module   {stats['incremental_seconds']:.3f}s"
            f"  ({stats['incremental_reanalyzed']} analyzed,"
            f" {stats['incremental_cache_status']})"
        )
    if "service_touch_seconds" in stats:
        lines.append(
            f"touch the WAL module    {stats['service_touch_seconds']:.3f}s"
            f"  ({stats['service_touch_reanalyzed']} analyzed,"
            f" {stats['service_touch_cache_status']})"
        )
    lines.append(f"active findings         {stats['active_findings']}")
    return "\n".join(lines)


def check_budget(stats: dict, max_warm_seconds: float) -> list:
    """Budget violations for CI; empty when the cache holds up."""
    problems = []
    if stats["warm_reanalyzed"] != 0:
        problems.append(
            "warm run re-analyzed "
            f"{stats['warm_reanalyzed']} file(s); expected 0"
        )
    if stats["warm_cache_status"] != "hit":
        problems.append(
            f"warm cache status is {stats['warm_cache_status']!r}; "
            "expected 'hit'"
        )
    if stats["warm_seconds"] > max_warm_seconds:
        problems.append(
            f"warm run took {stats['warm_seconds']:.3f}s; "
            f"budget is {max_warm_seconds:.3f}s"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", help="write the stats as a JSON artifact"
    )
    parser.add_argument(
        "--max-warm-seconds",
        type=float,
        default=None,
        help="fail (exit 1) when the warm run exceeds this wall-clock budget",
    )
    parser.add_argument(
        "--no-touch",
        action="store_true",
        help="skip the incremental (touch-one-file) measurement",
    )
    args = parser.parse_args(argv)

    try:
        stats = run_bench(touch=not args.no_touch)
    except (OSError, ValueError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit("Lint engine: cold vs warm cache over src/", _report(stats))
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
    if args.max_warm_seconds is not None:
        problems = check_budget(stats, args.max_warm_seconds)
        if problems:
            for problem in problems:
                print(f"budget violation: {problem}", file=sys.stderr)
            return 1
    return 0


def test_warm_cache_budget(benchmark):
    """Pytest entry: warm run must be a full hit and beat the cold run."""
    stats = benchmark.pedantic(
        lambda: run_bench(touch=False), rounds=1, iterations=1
    )
    emit("Lint engine: cold vs warm cache over src/", _report(stats))
    assert stats["warm_reanalyzed"] == 0
    assert stats["warm_cache_status"] == "hit"
    assert stats["warm_seconds"] < stats["cold_seconds"]


if __name__ == "__main__":
    raise SystemExit(main())
