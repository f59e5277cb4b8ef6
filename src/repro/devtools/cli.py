"""Command-line front end for the linter.

Exit codes follow the repo-wide CLI convention (docs/SERVICE.md):

* ``0`` -- clean (no active findings),
* ``1`` -- findings (or stale baseline entries under ``--strict``),
* ``2`` -- usage or internal error (argparse also exits 2 natively).

Exposed both as ``python -m repro.devtools`` and as the ``repro lint``
subcommand, which hands its arguments to :func:`main` unchanged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.devtools.baseline import Baseline
from repro.devtools.core import all_rules
from repro.devtools.reporters import format_human, format_json, format_sarif
from repro.devtools.runner import run_lint

__all__ = ["main"]

DEFAULT_BASELINE = ".lint-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis for the repro codebase "
        "(concurrency, numeric hygiene, dead code, durability protocol).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--project-root",
        default=".",
        help="repository root for relative paths, the baseline, and the "
        "dead-export reference scan (default: .)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file relative to the project root "
        f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file; report everything",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current active findings "
        "(each new entry gets a TODO reason to fill in)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-all",
        action="store_true",
        help="also list suppressed and baselined findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat stale baseline entries as errors (exit 1)",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule_id, rule_class in sorted(all_rules().items()):
        lines.append(f"{rule_id}  {rule_class.name}")
        lines.append(f"      {rule_class.rationale}")
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(_list_rules())
        return 0

    root = Path(args.project_root).resolve()
    if not root.is_dir():
        print(f"error: project root {root} is not a directory", file=sys.stderr)
        return 2

    paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if not path.exists():
            print(f"error: no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_absolute():
            baseline_path = root / baseline_path

    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",") if part.strip()}

    result = run_lint(
        paths=paths,
        project_root=root,
        baseline_path=None if args.update_baseline else baseline_path,
        select=select,
        show_all=args.show_all,
    )

    if args.update_baseline:
        if baseline_path is None:
            print("error: --update-baseline requires a baseline path",
                  file=sys.stderr)
            return 2
        old = Baseline.load(baseline_path)
        reasons = {entry.key(): entry.reason for entry in old.entries}
        fresh = Baseline.from_findings(result.findings)
        for i, entry in enumerate(fresh.entries):
            kept = reasons.get(entry.key())
            if kept:
                fresh.entries[i] = type(entry)(
                    rule=entry.rule,
                    path=entry.path,
                    line_text=entry.line_text,
                    reason=kept,
                )
        fresh.save(baseline_path)
        print(
            f"baseline updated: {len(fresh.entries)} entr"
            f"{'y' if len(fresh.entries) == 1 else 'ies'} -> {baseline_path}"
        )
        return 0

    if args.format == "json":
        report = format_json(result)
    elif args.format == "sarif":
        report = format_sarif(result)
    else:
        report = format_human(result)
    print(report)
    if not result.ok:
        return 1
    if args.strict and result.stale_baseline:
        print(
            f"error: {len(result.stale_baseline)} stale baseline "
            "entr(y/ies) under --strict; run --update-baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``), lint, return the exit code."""
    # run_lint and Baseline.load report bad input (unknown rule id,
    # malformed baseline) as ValueError: a usage error, exit 2.
    try:
        return _run(_build_parser().parse_args(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 2


if __name__ == "__main__":
    sys.exit(main())
