"""Run one workload of the end-to-end benchmark; print one JSON result line.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The form ``BENCHMARK.json`` runs: ``python -m benchmarks.e2e --line``
for one workload, with the checkout's sources on the import path (see
``__main__.py`` for the output and the exit status).  Exits 2 when the
checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.__main__ import main as run_benchmark

    return run_benchmark(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        + (["--trace"] if args.trace else [])
        + ["--line"]
    )


if __name__ == "__main__":
    sys.exit(main())
