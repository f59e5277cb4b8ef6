"""Command-line interface: ``repro <experiment>`` or ``python -m repro``.

Runs any paper experiment and prints its paper-vs-measured report.
``repro list`` shows what is available; every experiment accepts
``--seed`` and, where meaningful, a size knob so quick runs stay quick.
``repro serve`` runs the long-lived rating service (HTTP API over the
streaming engine), ``repro replay`` pushes a recorded trace
through the same engine offline, and ``repro lint`` runs the
project's static analyzer (:mod:`repro.devtools`).

Exit codes follow one convention across every subcommand (see
docs/SERVICE.md): 0 success, 1 domain failure (:class:`ReproError`,
lint findings), 2 usage or internal error -- so scripts and CI can
rely on the status code instead of scraping tracebacks.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.reporting import dump_json

__all__ = ["main", "build_parser"]


def _registry() -> dict:
    """The experiment registry, imported only by ``run`` and ``list``.

    ``serve``/``replay`` (and every spawned cluster worker, which
    re-imports this module) never load the experiment stack.
    """
    from repro.experiments import REGISTRY

    return REGISTRY


def __getattr__(name: str):
    # PEP 562: ``repro.cli.REGISTRY`` stays reachable without an eager import.
    if name == "REGISTRY":
        return _registry()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _ExperimentChoices:
    """``choices`` for ``repro run`` that reads the registry on first use.

    argparse only iterates ``choices`` to format a default metavar or an
    "invalid choice" error, so with an explicit metavar building the
    parser stays registry-free.
    """

    def __contains__(self, name: object) -> bool:
        return name in _registry()

    def __iter__(self):
        return iter(sorted(_registry()))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'Building Trust in Online Rating "
            "Systems Through Signal Modeling' (ICDCS 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment",
        choices=_ExperimentChoices(),
        metavar="experiment",
        help="which paper artifact to reproduce (see `repro list`)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="master seed")
    run_parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="Monte-Carlo repetitions (experiments that repeat; "
        "defaults to the paper's count)",
    )
    run_parser.add_argument(
        "--bias",
        type=float,
        default=None,
        help="attack bias shift (fig10-fig12 only)",
    )
    run_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also dump the structured result to this JSON file",
    )

    audit_parser = sub.add_parser(
        "audit", help="audit a rating-trace file (.csv or .jsonl)"
    )
    audit_parser.add_argument("trace", help="path to the trace file")
    audit_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="model-error threshold (default: auto-calibrated to the trace)",
    )
    audit_parser.add_argument(
        "--window", type=int, default=50, help="ratings per analysis window"
    )

    serve_parser = sub.add_parser(
        "serve", help="run the rating service (engine + HTTP API)"
    )
    _add_engine_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8080, help="bind port")
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    replay_parser = sub.add_parser(
        "replay", help="replay a rating trace (.csv or .jsonl) through the engine"
    )
    replay_parser.add_argument("trace", help="path to the trace file")
    _add_engine_arguments(replay_parser)
    replay_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also dump the replay stats to this JSON file",
    )

    # Listed for `repro --help` only: main() hands `repro lint ...` to
    # repro.devtools.cli.main before parsing, so serve/replay launches
    # never import the linter.
    sub.add_parser(
        "lint",
        help="run the project static analyzer (repro.devtools); "
        "see `repro lint --help`",
        add_help=False,
    )
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Service-engine knobs shared by ``serve`` and ``replay``."""
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "run a multi-process cluster with this many worker processes "
            "(0 = in-process engine; requires --wal-dir)"
        ),
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=4096,
        help="cluster: max acked ratings buffered per worker",
    )
    parser.add_argument(
        "--ack-fsync-every",
        type=int,
        default=64,
        help="cluster: group-commit the ingest WAL every N acks",
    )
    parser.add_argument(
        "--batch", type=int, default=64, help="ratings per trust flush"
    )
    parser.add_argument(
        "--batch-seconds",
        type=float,
        default=None,
        help="also flush after this many seconds (default: count-only)",
    )
    parser.add_argument(
        "--window", type=int, default=50, help="streaming detector window size"
    )
    parser.add_argument(
        "--stride", type=int, default=5, help="arrivals between AR refits"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="AR model-error alarm threshold (default: 0.10)",
    )
    parser.add_argument(
        "--sources",
        default="ar",
        help=(
            "comma-separated detector ensemble sources "
            "(ar, cograph, iterfilter; default: ar only)"
        ),
    )
    parser.add_argument(
        "--source-weights",
        default=None,
        help="comma-separated combiner weights, aligned with --sources",
    )
    parser.add_argument(
        "--combiner",
        default="weighted_mean",
        choices=("weighted_mean", "max"),
        help="how per-source suspicion masses merge",
    )
    parser.add_argument(
        "--store",
        default="memory",
        choices=("memory", "tiered"),
        help=(
            "rating storage backend: all-in-RAM lists, or sqlite cold "
            "tier + numpy hot windows (flat memory at large histories)"
        ),
    )
    parser.add_argument(
        "--hot-window",
        type=int,
        default=None,
        help="tiered backend per-product hot-window size (default: 2x --window)",
    )
    parser.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead log directory (enables durability + recovery)",
    )
    parser.add_argument(
        "--segment-entries",
        type=int,
        default=100_000,
        help="WAL entries per segment file (rotation granularity)",
    )
    parser.add_argument(
        "--no-wal-gc",
        action="store_true",
        help="keep all WAL segments and snapshots (disable reclamation)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="automatic snapshot every N accepted ratings (0 = off)",
    )


def _run_experiment(args: argparse.Namespace) -> str:
    runner, reporter, _ = _registry()[args.experiment]
    kwargs = {"seed": args.seed}
    if args.runs is not None and args.experiment in (
        "detection", "table1", "baselines", "adaptive-attacks", "sensitivity", "vouching", "individual-unfair"
    ):
        kwargs["n_runs"] = args.runs
    if args.bias is not None and args.experiment == "fig10-fig12":
        kwargs["bias_shift"] = args.bias
    result = runner(**kwargs)
    if args.json_path:
        dump_json(result, args.json_path)
    return reporter(result)


def _build_engine(args: argparse.Namespace):
    """Construct (or recover) a service engine from CLI arguments."""
    from repro.service import RatingEngine, ServiceConfig
    from repro.service.wal import wal_exists

    sources = tuple(
        name.strip() for name in args.sources.split(",") if name.strip()
    )
    weights = None
    if args.source_weights is not None:
        weights = tuple(
            float(w) for w in args.source_weights.split(",") if w.strip()
        )
    config = ServiceConfig(
        batch_max_ratings=args.batch,
        batch_max_seconds=args.batch_seconds,
        detector_window=args.window,
        detector_stride=args.stride,
        ensemble_sources=sources,
        ensemble_weights=weights,
        ensemble_thresholds=tuple(
            args.threshold if name == "ar" else None for name in sources
        ),
        ensemble_combiner=args.combiner,
        store_backend=args.store,
        store_hot_window=args.hot_window,
        wal_dir=args.wal_dir,
        wal_segment_entries=args.segment_entries,
        wal_gc=not args.no_wal_gc,
        snapshot_every=args.snapshot_every,
        cluster_workers=args.workers,
        cluster_queue_depth=args.queue_depth,
        cluster_ack_fsync_every=args.ack_fsync_every,
    )
    if config.cluster_workers:
        from repro.service.cluster import ClusterCoordinator

        return ClusterCoordinator(config)
    if args.wal_dir is not None and wal_exists(args.wal_dir):
        from pathlib import Path

        return RatingEngine.recover(Path(args.wal_dir), config=config)
    return RatingEngine(config)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.http import serve

    engine = _build_engine(args)
    durability = args.wal_dir if args.wal_dir else "disabled (no --wal-dir)"
    tier = f"{args.workers} worker processes" if args.workers else "in-process"
    print(
        f"repro service on http://{args.host}:{args.port} "
        f"({tier}, WAL: {durability}); SIGTERM or Ctrl-C to stop"
    )
    # serve() owns the full shutdown path: stop accepting, final
    # snapshot (while the WAL is still open), then engine close.
    serve(engine, host=args.host, port=args.port, quiet=not args.verbose)
    if args.wal_dir:
        print(f"final snapshot written to {args.wal_dir}")
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.ratings.io import read_csv, read_jsonl

    trace = Path(args.trace)
    reader = read_jsonl if trace.suffix == ".jsonl" else read_csv
    stream = reader(trace)
    engine = _build_engine(args)
    start = time.perf_counter()
    results = engine.submit_many(stream)
    engine.flush()
    elapsed = time.perf_counter() - start
    stats = engine.snapshot_stats()
    stats["replay_seconds"] = elapsed
    stats["replay_ratings_per_second"] = len(results) / elapsed if elapsed else 0.0
    malicious = engine.detected_malicious()
    accepted = sum(1 for r in results if r.accepted)
    lines = [
        f"replayed {trace.name}: {accepted}/{len(results)} ratings accepted "
        f"in {elapsed:.3f}s ({stats['replay_ratings_per_second']:.0f} ratings/sec)",
        f"  products: {stats['n_products']}  raters: {stats['n_raters']}",
        f"  AR evaluations: {stats['ar_evaluations']}  "
        f"windows flagged: {stats['windows_flagged']}  "
        f"trust updates: {stats['trust_updates']}",
        f"  ensemble: {'+'.join(stats['ensemble']['sources'])} "
        f"via {stats['ensemble']['combiner']}",
        f"  detected malicious raters: {malicious if malicious else 'none'}",
    ]
    print("\n".join(lines))
    if args.json_path:
        dump_json(stats, args.json_path)
    engine.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (nonzero on failure)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] == ["lint"]:
            from repro.devtools.cli import main as lint_main

            return lint_main(argv[1:])
        args = build_parser().parse_args(argv)
        if args.command == "audit":
            from repro.audit import audit_file, format_audit

            result = audit_file(
                args.trace, threshold=args.threshold, window_size=args.window
            )
            print(format_audit(result))
            return 0
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "replay":
            return _run_replay(args)
        if args.command == "list" or args.command is None:
            registry = _registry()
            print("available experiments:")
            for name in sorted(registry):
                print(f"  {name:<12} {registry[name][2]}")
            return 0
        print(_run_experiment(args))
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 -- CLI boundary: trade the
        # traceback for a stable exit status scripts can branch on.
        print(f"unexpected error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
