"""Lint wall time: the median of three cold runs over ``src/``.

Every lint run parses and checks the whole tree, so one number prices
the linter: the median wall time of :data:`RUNS` runs of every rule
over ``src/`` against the committed baseline.  CI fails the build when
that median exceeds ``--max-cold-seconds``.

Also runs standalone without pytest (``make bench-lint`` rebuilds the
committed ``BENCH_lint.json``, stamped with where it ran)::

    PYTHONPATH=src python benchmarks/bench_lint.py \
        --json BENCH_lint.json --max-cold-seconds 5.9
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # standalone `python benchmarks/bench_lint.py`
    sys.path.insert(0, str(ROOT))

from benchmarks.conftest import emit
from repro.devtools.runner import run_lint

RUNS = 3


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _numpy_version() -> Optional[str]:
    # Read from the installed metadata: the linter needs only the
    # standard library, so the bench must run where numpy is absent.
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    """Where the bench ran: git sha, interpreter, numpy, CPUs and time."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def run_bench(runs: int = RUNS) -> dict:
    """Lint ``src/`` ``runs`` times; the median wall time and its runs."""
    stamp = provenance()
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        result = run_lint(
            [ROOT / "src"],
            project_root=ROOT,
            baseline_path=ROOT / ".lint-baseline.json",
        )
        seconds.append(time.perf_counter() - start)
    return {
        "files": len(result.files),
        "active_findings": len(result.active_findings()),
        "runs": runs,
        "seconds": [round(s, 4) for s in seconds],
        "median_seconds": round(statistics.median(seconds), 4),
        "provenance": stamp,
    }


def _report(stats: dict) -> str:
    runs = ", ".join(f"{s:.3f}s" for s in stats["seconds"])
    return "\n".join(
        [
            f"files linted        {stats['files']}",
            f"runs                {runs}",
            f"median              {stats['median_seconds']:.3f}s",
            f"active findings     {stats['active_findings']}",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", help="write the stats as a JSON artifact"
    )
    parser.add_argument(
        "--max-cold-seconds",
        type=float,
        default=None,
        help="fail (exit 1) when the median run exceeds this wall-clock budget",
    )
    args = parser.parse_args(argv)

    try:
        stats = run_bench()
    except (OSError, ValueError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(f"Lint engine: median of {RUNS} cold runs over src/", _report(stats))
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
    budget = args.max_cold_seconds
    if budget is not None and stats["median_seconds"] > budget:
        print(
            f"budget violation: median run took {stats['median_seconds']:.3f}s; "
            f"budget is {budget:.3f}s",
            file=sys.stderr,
        )
        return 1
    return 0


def test_lint_cold_runs(benchmark):
    """Pytest entry: the tree lints clean in every timed run."""
    stats = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    emit(f"Lint engine: median of {RUNS} cold runs over src/", _report(stats))
    assert stats["active_findings"] == 0


if __name__ == "__main__":
    raise SystemExit(main())
