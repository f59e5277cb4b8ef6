"""The four workloads of the end-to-end benchmark.

The system under test always runs as the real CLI in a subprocess --
``repro serve`` driven over HTTP, or ``repro replay`` -- and receives
only the generated ratings and requests.  Each workload stresses a
different path and bypasses others, so a change to one layer shows on
one workload and predicts no change on another:

``ingest``
    ``repro serve --workers 1`` (AR only, memory store, worker WAL
    fsync per rating, ingest WAL group commit 64).  Open-loop Poisson
    POSTs at :data:`INGEST_RATE`; every :data:`RYW_EVERY`-th POST is
    followed on its lane by a read-your-write score GET.  The write
    path end to end: HTTP, coordinator submit and ingest WAL, the
    framing hop, worker apply with its own fsync, AR, trust digest.
    The offered rate is ~30% of the closed-loop knee (~690 POST/s on
    the reference box): the box's own speed swings by up to 4x over
    minutes, and at 400/s a slow phase pushed the cluster past
    saturation (median acks of 0.5 s in one run of eight).
``read_mostly``
    ``repro serve --workers 2 --store tiered``.  A closed-loop preload
    (untimed), then an open loop at :data:`READ_RATE`: 90% score GETs
    over the preloaded products with Zipf(1.1) popularity, 10% POSTs
    continuing the stream.  The read path: read-your-writes wait,
    score RPC, the engine's score cache, tiered cold reads on a miss,
    ring routing over two workers.  Two workers are here for routing
    coverage, not for a scaling claim on a two-core box.
``replay_cluster``
    ``repro replay --workers 1`` of the x3-population marketplace (no
    HTTP): coordinator WAL, framing, worker WAL fsync and the trust
    digest round trip, whose per-flush cost grows with the rater count.
``replay_ensemble``
    ``repro replay --sources ar,cograph,iterfilter --store tiered`` of
    the x1 marketplace on the in-process engine with its default four
    thread shards: the ensemble flush sweeps and the tiered store,
    bypassing HTTP and the cluster.  The trace is long enough for the
    co-rating graph to hit its edge cap, past which every scoring pass
    sorts the whole edge set (the full ensemble then costs ~1.8x the
    AR-only replay of the same trace; ~1.3x on a trace half as long).

Every workload checks the program's outputs (see each function) and
records any mismatch in :attr:`Result.problems`.
"""

from __future__ import annotations

import ast
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.client import LANES, TIMEOUT_S, Op, lane_of, run_lanes
from benchmarks.e2e.inputs import (
    ARRIVALS,
    READ_MIX,
    READ_TARGETS,
    marketplace_ratings,
    poisson_arrivals,
    stream_rng,
    zipf_targets,
)
from benchmarks.e2e.layers import layer_metrics, load_traces
from benchmarks.e2e.proc import RssMonitor, Server, Workspace, stop_group
from benchmarks.e2e.stats import Metric, median, tail, timing_pair
from repro.ratings.io import read_csv, write_csv
from repro.ratings.models import Rating
from repro.ratings.stream import RatingStream
from repro.service import RatingEngine, ServiceConfig

__all__ = ["E2E_METRICS", "WORKLOADS", "Result", "Run", "gated_metrics"]

INGEST_RATE = 200.0  # POST/s, open loop
RYW_EVERY = 10  # every 10th POST is followed by a read-your-write GET
READ_RATE = 200.0  # operations/s, open loop
READ_SHARE = 0.9
ZIPF_S = 1.1
PRELOAD_PER_S = 200  # read_mostly preload ratings per second of --seconds
CLUSTER_SCALE = 3
CLUSTER_RATINGS_PER_S = 600  # ratings per replay per second of --seconds
# The co-rating graph's flush sweeps start to cost once a shard's graph
# outgrows its 50,000-edge cap (~12,500 ratings over the default four
# shards); 16,000 ratings at 8 s put a fifth of the trace past it.
ENSEMBLE_RATINGS_PER_S = 2000
# Cold serve launches per run; setup_s is their median.  One launch
# varies by ~19% (quartile spread over its median) on the reference
# box, the median of three by ~16% and of five by ~10%.
LAUNCHES = 5
# Replays per run; setup_s and replay_rps are their medians.  The
# ensemble trace takes ~9 s to apply, so it is replayed only twice to
# keep a run near 25 s.
CLUSTER_REPLAYS = 3
ENSEMBLE_REPLAYS = 2
LATENESS_LIMIT_MS = 20.0  # a run whose generator ran later is invalid
_REPLAY_TIMEOUT_S = 60.0

#: The end-to-end metrics by name: ``(unit, workloads reporting it)``.
E2E_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup_s": ("s", ("ingest", "read_mostly", "replay_cluster", "replay_ensemble")),
    "ack_p50_ms": ("ms", ("ingest", "read_mostly")),
    "ack_p99_ms": ("ms", ("ingest", "read_mostly")),
    "visible_p50_ms": ("ms", ("ingest",)),
    "visible_p99_ms": ("ms", ("ingest",)),
    "read_p50_ms": ("ms", ("read_mostly",)),
    "read_p99_ms": ("ms", ("read_mostly",)),
    "replay_rps": ("1/s", ("replay_cluster", "replay_ensemble")),
    "rss_mb": ("MB", ("ingest", "read_mostly", "replay_cluster", "replay_ensemble")),
    "failed_frac": ("ratio", ("ingest", "read_mostly", "replay_cluster", "replay_ensemble")),
}


@dataclass
class Run:
    """Settings of one workload run."""

    root: Path
    workspace: Workspace
    seed: int
    seconds: float
    trace: bool = False
    smoke: bool = False

    @property
    def launches(self) -> int:
        return 1 if self.trace or self.smoke else LAUNCHES



@dataclass
class Result:
    """What one workload run measured and whether its outputs were right.

    ``metrics`` holds the end-to-end metrics of :data:`E2E_METRICS`
    that the workload reports; ``diagnostics`` holds printed-only
    numbers (p999, generator lateness); ``layers`` the per-layer
    metrics of a traced run.  ``problems`` are output mismatches (the
    run is not correct); ``invalid`` are reasons its timings cannot be
    trusted although its outputs were right.
    """

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    diagnostics: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def gated_metrics(result: Result) -> Dict[str, Metric]:
    """The three metrics every workload reports under one name.

    ``median_ms`` is the workload's headline timing: the median POST
    ack latency on ``ingest``, the median score-read latency on
    ``read_mostly``, and on the replays the wall time per 1,000
    ratings (``1e6 / replay_rps``, the median over the run's replays).
    The tails are printed but not gated: their run-to-run spread on
    the reference box exceeds the largest bound a metric may have.
    """
    m = result.metrics
    if result.workload == "ingest":
        mid = m["ack_p50_ms"]
    elif result.workload == "read_mostly":
        mid = m["read_p50_ms"]
    else:
        mid = Metric(1e6 / m["replay_rps"].value, "ms", n=m["replay_rps"].n)
    return {
        "setup_s": m["setup_s"],
        "median_ms": Metric(mid.value, "ms", n=mid.n),
        "rss_mb": m["rss_mb"],
    }


# -- shared helpers -----------------------------------------------------------


def _body(rating: Rating) -> bytes:
    return json.dumps(
        {
            "rating_id": rating.rating_id,
            "rater_id": rating.rater_id,
            "product_id": rating.product_id,
            "value": rating.value,
            "time": rating.time,
        }
    ).encode("utf-8")


def _post(rating: Rating, due: float = 0.0, follow: bool = False) -> Op:
    pid = rating.product_id
    return Op(
        due=due,
        lane=lane_of(pid),
        method="POST",
        path="/ratings",
        body=_body(rating),
        follow=f"/products/{pid}/score" if follow else None,
    )


def _get(path: str, lane: int, due: float = 0.0) -> Op:
    return Op(due=due, lane=lane, method="GET", path=path)


def _from_due(ops: Sequence[Op], start: float, follow: bool = False) -> List[float]:
    """Latency of each op from its due time; a failure counts as the timeout."""
    out = []
    for op in ops:
        if follow:
            ok, done = op.ok and op.follow_ok, op.follow_done
        else:
            ok, done = op.ok, op.done
        out.append(done - (start + op.due) if ok else TIMEOUT_S)
    return out


def _timing(result: Result, prefix: str, seconds: List[float]) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` plus a p999 diagnostic."""
    mid, top = timing_pair(seconds, 1e3, "ms")
    if mid is None or top is None:
        result.problems.append(f"{prefix}: too few samples ({len(seconds)}) for a tail")
        return
    result.metrics[f"{prefix}_p50_ms"] = mid
    result.metrics[f"{prefix}_p99_ms"] = top
    found = tail(seconds, 99.9)
    if found is not None and found[0] == "p999":
        result.diagnostics[f"{prefix}_p999_ms"] = Metric(
            found[1] * 1e3, "ms", n=len(seconds)
        )


def _client_diagnostics(result: Result, ops: Sequence[Op]) -> Dict[str, float]:
    """Generator lateness and connect time; flags a late generator."""
    lateness = [op.lateness for op in ops]
    connects = [op.connect_s for op in ops if op.ok]
    extra: Dict[str, float] = {}
    found = tail(lateness, 99.0)
    if found is not None:
        late_ms = found[1] * 1e3
        extra["client.lateness_p99_ms"] = late_ms
        result.diagnostics["lateness_p99_ms"] = Metric(
            late_ms, "ms", n=len(lateness), label=found[0]
        )
        if late_ms > LATENESS_LIMIT_MS:
            result.invalid.append(
                f"the load generator ran {late_ms:.1f} ms late at "
                f"{found[0]} (limit {LATENESS_LIMIT_MS:g} ms)"
            )
    if connects:
        extra["client.connect_p50_us"] = median(connects) * 1e6
    return extra


def _count(result: Result, ops: Sequence[Op]) -> None:
    """Attempted and failed requests; a read-your-write GET is attempted
    only after its POST succeeded."""
    for op in ops:
        result.attempted += 1
        result.failed += 0 if op.ok else 1
        if op.follow is not None and op.ok:
            result.attempted += 1
            result.failed += 0 if op.follow_ok else 1


def _wal_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("wal-*.jsonl"))


def _launch(run: Run, args: List[str]) -> Tuple[Server, List[float], Optional[Path], Path]:
    """Cold-launch the server ``run.launches`` times; keep the last one up.

    Each launch starts on an empty WAL directory and is timed to its
    first ``/healthz`` 200; all but the last are killed at once.
    """
    launches: List[float] = []
    for index in range(run.launches):
        last = index == run.launches - 1
        trace_dir = run.workspace.fresh_dir("trace-") if run.trace and last else None
        wal_dir = run.workspace.fresh_dir("wal-")
        server = Server(
            run.workspace, [*args, "--wal-dir", str(wal_dir)], run.workspace.env(trace_dir)
        )
        try:
            launches.append(server.start())
        except BaseException:
            server.stop(graceful=False)
            raise
        if not last:
            server.stop(graceful=False)
    return server, launches, trace_dir, wal_dir


def _finish_serve(
    result: Result,
    run: Run,
    server: Server,
    launches: List[float],
    trace_dir: Optional[Path],
    wal_dir: Path,
    n_ratings: int,
    extra: Dict[str, float],
) -> None:
    """Common end-to-end and per-layer metrics after a graceful stop."""
    assert server.monitor is not None
    result.metrics["setup_s"] = Metric(median(launches), "s", n=len(launches))
    result.metrics["rss_mb"] = Metric(server.monitor.peak_mb, "MB")
    result.metrics["failed_frac"] = Metric(
        result.failed / max(result.attempted, 1), "ratio", n=result.attempted
    )
    if trace_dir is not None:
        extra = dict(extra)
        extra["rss.coordinator_mb"] = server.monitor.peak_leader_mb
        extra["rss.workers_mb"] = server.monitor.peak_others_mb
        extra["wal.bytes_per_rating"] = _wal_bytes(wal_dir) / max(n_ratings, 1)
        result.layers = layer_metrics(load_traces(trace_dir), extra)


def _score_in_range(payload: dict) -> bool:
    score = payload["score"]
    return score is not None and 0.0 <= score <= 1.0


def _check_scores(result: Result, ops: Sequence[Op]) -> Dict[int, float]:
    """Product id -> served score of final score GETs; each must lie in [0, 1]."""
    scores: Dict[int, float] = {}
    for op in ops:
        if not op.ok:
            result.problems.append(f"GET {op.path}: status {op.status} {op.error or ''}")
        elif not _score_in_range(op.payload):
            result.problems.append(f"GET {op.path}: score {op.payload['score']!r}")
        else:
            scores[int(op.path.split("/")[2])] = op.payload["score"]
    return scores


def _check_stats(result: Result, stats: dict, acks: int) -> None:
    if stats["n_accepted"] != acks:
        result.problems.append(
            f"/stats n_accepted {stats['n_accepted']} != {acks} acknowledged POSTs"
        )
    if stats["n_rejected"] != 0:
        result.problems.append(f"/stats n_rejected {stats['n_rejected']} != 0")


# -- ingest -------------------------------------------------------------------


def ingest(run: Run) -> Result:
    """Open-loop POSTs to a 1-worker cluster, checked bit for bit.

    Oracle: the ``seq`` of every 202, fed in seq order to an in-process
    ``RatingEngine(ServiceConfig(n_shards=1))``, must reproduce every
    product's final served score and every rater's served trust
    exactly -- the 1-worker cluster equals the in-process engine.
    """
    result = Result("ingest")
    due = poisson_arrivals(stream_rng(run.seed, ARRIVALS), INGEST_RATE, run.seconds)
    ratings = marketplace_ratings(run.seed, len(due))
    ops = [
        _post(r, t, follow=i % RYW_EVERY == RYW_EVERY - 1)
        for i, (t, r) in enumerate(zip(due, ratings))
    ]
    products = sorted({r.product_id for r in ratings})
    raters = sorted({r.rater_id for r in ratings})
    server, launches, trace_dir, wal_dir = _launch(run, ["--workers", "1"])
    try:
        start = run_lanes(server.port, ops)
        # Score reads wait until the worker applied every queued
        # rating, so the trust reads that follow see the final table.
        score_ops = [_get(f"/products/{p}/score", lane_of(p)) for p in products]
        run_lanes(server.port, score_ops)
        trust_ops = [_get(f"/raters/{r}/trust", r % LANES) for r in raters]
        run_lanes(server.port, trust_ops)
        stats = server.get("/stats")
    finally:
        server.stop()
    _count(result, ops)
    _timing(result, "ack", _from_due(ops, start))
    _timing(result, "visible", _from_due([op for op in ops if op.follow], start, follow=True))
    extra = _client_diagnostics(result, ops)
    acked = [(op.payload["seq"], r) for op, r in zip(ops, ratings) if op.status == 202]
    _check_stats(result, stats, len(acked))
    for op in ops:
        if op.follow and op.ok and op.follow_ok and not _score_in_range(op.follow_payload):
            result.problems.append(f"read-your-write {op.follow}: {op.follow_payload}")
    served = _check_scores(result, score_ops)
    if sorted(seq for seq, _ in acked) != list(range(len(acked))):
        result.problems.append("acknowledged seqs are not 0..n-1")
    reference = RatingEngine(ServiceConfig(n_shards=1))
    for _, rating in sorted(acked, key=lambda pair: pair[0]):
        if not reference.submit(rating).accepted:
            result.problems.append(f"reference rejected rating {rating.rating_id}")
    for pid, score in served.items():
        if score != reference.score(pid):
            result.problems.append(
                f"product {pid}: served score {score!r} != reference {reference.score(pid)!r}"
            )
    for op, rid in zip(trust_ops, raters):
        if not op.ok:
            result.problems.append(f"GET {op.path}: status {op.status} {op.error or ''}")
        elif op.payload["trust"] != reference.trust(rid):
            result.problems.append(
                f"rater {rid}: served trust {op.payload['trust']!r} != "
                f"reference {reference.trust(rid)!r}"
            )
    _finish_serve(result, run, server, launches, trace_dir, wal_dir, len(ratings), extra)
    return result


# -- read_mostly ----------------------------------------------------------------


def read_mostly(run: Run) -> Result:
    """Zipf score reads with a trickle of writes on a 2-worker tiered cluster.

    Oracle: every served score lies in [0, 1], and ``/stats`` counts
    every acknowledged POST as accepted and none as rejected.
    """
    result = Result("read_mostly")
    due = poisson_arrivals(stream_rng(run.seed, ARRIVALS), READ_RATE, run.seconds)
    mix = stream_rng(run.seed, READ_MIX).random(len(due)) < READ_SHARE
    n_reads = int(mix.sum())
    preload_n = int(PRELOAD_PER_S * run.seconds)
    ratings = marketplace_ratings(run.seed, preload_n + len(due) - n_reads)
    preload, stream = ratings[:preload_n], iter(ratings[preload_n:])
    written = sorted({r.product_id for r in preload})
    targets = iter(zipf_targets(stream_rng(run.seed, READ_TARGETS), written, ZIPF_S, n_reads))
    ops: List[Op] = []
    for t, is_read in zip(due, mix):
        if is_read:
            pid = next(targets)
            ops.append(_get(f"/products/{pid}/score", lane_of(pid), t))
        else:
            ops.append(_post(next(stream), t))
    reads = [op for op in ops if op.method == "GET"]
    posts = [op for op in ops if op.method == "POST"]
    preload_ops = [_post(r) for r in preload]
    products = sorted({r.product_id for r in ratings})
    server, launches, trace_dir, wal_dir = _launch(
        run, ["--workers", "2", "--store", "tiered"]
    )
    try:
        run_lanes(server.port, preload_ops)
        start = run_lanes(server.port, ops)
        score_ops = [_get(f"/products/{p}/score", lane_of(p)) for p in products]
        run_lanes(server.port, score_ops)
        stats = server.get("/stats")
    finally:
        server.stop()
    failed_preload = sum(1 for op in preload_ops if op.status != 202)
    if failed_preload:
        result.problems.append(f"{failed_preload} preload POSTs were not acknowledged")
    _count(result, ops)
    _timing(result, "ack", _from_due(posts, start))
    _timing(result, "read", _from_due(reads, start))
    extra = _client_diagnostics(result, ops)
    _check_scores(result, [op for op in reads if op.ok] + score_ops)
    acks = sum(1 for op in preload_ops + posts if op.status == 202)
    _check_stats(result, stats, acks)
    _finish_serve(result, run, server, launches, trace_dir, wal_dir, len(ratings), extra)
    return result


# -- replays --------------------------------------------------------------------


@dataclass
class _Replay:
    stats: dict
    detected: List[int]
    wall_s: float
    peak_mb: float
    leader_mb: float
    others_mb: float
    wal_bytes: int


def _replay(run: Run, trace: Path, args: List[str], trace_dir: Optional[Path]) -> _Replay:
    """One ``repro replay`` subprocess, timed from spawn to exit."""
    wal_dir = run.workspace.fresh_dir("wal-")
    out = wal_dir.parent / f"{wal_dir.name}.json"
    log = wal_dir.parent / f"{wal_dir.name}.log"
    argv = ["replay", str(trace), "--wal-dir", str(wal_dir), "--json", str(out), *args]
    with log.open("wb") as sink:
        started = time.monotonic()
        proc = run.workspace.popen(
            argv, run.workspace.env(trace_dir), stdout=sink, stderr=subprocess.STDOUT
        )
        monitor = RssMonitor(proc.pid)
        try:
            proc.wait(timeout=_REPLAY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            wall = time.monotonic() - started
            monitor.stop()
            stop_group(proc, graceful=False)
    text = log.read_text(errors="replace")
    if proc.returncode != 0:
        raise RuntimeError(f"repro {' '.join(argv)} failed ({proc.returncode}): {text[-2000:]}")
    detected: List[int] = []
    for line in text.splitlines():
        if "detected malicious raters:" in line:
            listed = line.split(":", 1)[1].strip()
            detected = [] if listed == "none" else list(ast.literal_eval(listed))
    return _Replay(
        stats=json.loads(out.read_text()),
        detected=detected,
        wall_s=wall,
        peak_mb=monitor.peak_mb,
        leader_mb=monitor.peak_leader_mb,
        others_mb=monitor.peak_others_mb,
        wal_bytes=_wal_bytes(wal_dir),
    )


_COUNTERS = ("ar_evaluations", "windows_flagged", "trust_updates")


def _counters(stats: dict, detected: List[int]) -> dict:
    return {**{k: stats[k] for k in _COUNTERS}, "detected": sorted(detected)}


def _replay_workload(
    run: Run,
    name: str,
    ratings: List[Rating],
    args: List[str],
    expected: Callable[[Path], Optional[dict]],
    times: int,
) -> Result:
    """Replay one seeded trace ``times`` times (once when tracing or
    smoke-testing) and check each replay.

    ``expected`` returns the reference counters for the trace, or None
    when the replays are checked only against each other.
    """
    result = Result(name)
    trace = run.workspace.path / "trace.csv"
    write_csv(RatingStream.from_ratings(ratings), trace)
    trace_dir = run.workspace.fresh_dir("trace-") if run.trace else None
    count = 1 if run.trace or run.smoke else times
    replays = [_replay(run, trace, args, trace_dir) for _ in range(count)]
    reference = expected(trace)
    n = len(ratings)
    for index, replay in enumerate(replays):
        stats = replay.stats
        result.attempted += n
        result.failed += int(stats["n_rejected"]) + (n - int(stats["n_accepted"]))
        if stats["n_accepted"] != n or stats["n_rejected"] != 0:
            result.problems.append(
                f"replay {index}: {stats['n_accepted']} of {n} ratings accepted, "
                f"{stats['n_rejected']} rejected"
            )
        got = _counters(stats, replay.detected)
        want = reference if reference is not None else _counters(
            replays[0].stats, replays[0].detected
        )
        if got != want:
            result.problems.append(f"replay {index}: counters {got} != expected {want}")
    seconds = [r.stats["replay_seconds"] for r in replays]
    result.metrics["setup_s"] = Metric(
        median([r.wall_s - s for r, s in zip(replays, seconds)]), "s", n=len(replays)
    )
    result.metrics["replay_rps"] = Metric(median([n / s for s in seconds]), "1/s", n=len(replays))
    result.metrics["rss_mb"] = Metric(median([r.peak_mb for r in replays]), "MB", n=len(replays))
    result.metrics["failed_frac"] = Metric(
        result.failed / max(result.attempted, 1), "ratio", n=result.attempted
    )
    if trace_dir is not None:
        last = replays[-1]
        result.layers = layer_metrics(
            load_traces(trace_dir),
            {
                "rss.coordinator_mb": last.leader_mb,
                "rss.workers_mb": last.others_mb,
                "wal.bytes_per_rating": last.wal_bytes / n,
            },
        )
    return result


def _reference_counters(trace: Path) -> dict:
    """Counters of the in-process single-shard engine on the same trace."""
    engine = RatingEngine(ServiceConfig(n_shards=1))
    engine.submit_many(read_csv(trace))
    engine.flush()
    return _counters(engine.snapshot_stats(), engine.detected_malicious())


def replay_cluster(run: Run) -> Result:
    """x3-population trace through a 1-worker cluster replay.

    Oracle: each replay's ``--json`` counters (AR evaluations, flagged
    windows, trust updates) and its detected raters equal those of the
    in-process single-shard engine on the same trace.
    """
    n = int(CLUSTER_RATINGS_PER_S * run.seconds)
    ratings = marketplace_ratings(run.seed, n, scale=CLUSTER_SCALE)
    return _replay_workload(
        run, "replay_cluster", ratings, ["--workers", "1"], _reference_counters, CLUSTER_REPLAYS
    )


def replay_ensemble(run: Run) -> Result:
    """x1 trace through the in-process engine with the full ensemble.

    Oracle: every rating is accepted, and every replay of the trace
    reports identical counters and detected raters (the replay is
    deterministic).
    """
    n = int(ENSEMBLE_RATINGS_PER_S * run.seconds)
    ratings = marketplace_ratings(run.seed, n)
    args = ["--sources", "ar,cograph,iterfilter", "--store", "tiered"]
    return _replay_workload(
        run, "replay_ensemble", ratings, args, lambda trace: None, ENSEMBLE_REPLAYS
    )


WORKLOADS: Dict[str, Callable[[Run], Result]] = {
    "ingest": ingest,
    "read_mostly": read_mostly,
    "replay_cluster": replay_cluster,
    "replay_ensemble": replay_ensemble,
}
