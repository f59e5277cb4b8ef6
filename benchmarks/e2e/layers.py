"""Per-layer metrics from the spans of a traced run.

Each traced process writes ``trace-<pid>.json`` (see
``tracehook/sitecustomize.py``); :func:`layer_metrics` merges them and
turns spans, fsync durations, frame sizes and registry counters into
the per-layer numbers of :data:`LAYER_METRICS`.  A layer's **self
time** is its span minus the time its child spans cover.  Spans join
across processes on the coordinator sequence number ``g``: the queue
hop of a rating is its worker ``RatingEngine.submit`` start minus its
coordinator ``submit`` end.

Metrics of a layer the workload never reaches (HTTP in a replay, the
graph sources without the ensemble) are absent from the result rather
than reported as zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from benchmarks.e2e.stats import Metric, median, timing_pair

__all__ = ["LAYER_METRICS", "layer_metrics", "load_traces", "self_times"]

#: Every per-layer metric by name, with its unit (README.md groups
#: them by layer).
LAYER_METRICS: Dict[str, str] = {
    "client.lateness_p99_ms": "ms",
    "client.connect_p50_us": "us",
    "http.post_self_p50_us": "us",
    "http.post_self_p99_us": "us",
    "http.get_self_p50_us": "us",
    "coordinator.submit_self_p50_us": "us",
    "coordinator.submit_p99_us": "us",
    "coordinator.queue_hop_p50_ms": "ms",
    "coordinator.queue_hop_p99_ms": "ms",
    "coordinator.queue_depth_max": "count",
    "coordinator.read_wait_p50_us": "us",
    "coordinator.read_wait_p99_us": "us",
    "wal.coord.append_p50_us": "us",
    "wal.worker.append_p50_us": "us",
    "wal.fsync_p50_us": "us",
    "wal.fsyncs_per_rating": "ratio",
    "wal.bytes_per_rating": "B",
    "framing.frames_per_rating": "ratio",
    "framing.bytes_per_rating": "B",
    "framing.ratings_per_ingest_frame": "ratio",
    "framing.send_p50_us": "us",
    "engine.submit_p50_us": "us",
    "engine.submit_p99_us": "us",
    "engine.busy_frac": "ratio",
    "engine.flushes_per_1k": "count",
    "store.add_p50_us": "us",
    "store.stream_p50_us": "us",
    "ensemble.ar.observe_p50_us": "us",
    "ensemble.ar.flush_total_s": "s",
    "ensemble.cograph.observe_p50_us": "us",
    "ensemble.cograph.flush_total_s": "s",
    "ensemble.cograph.flush_p99_ms": "ms",
    "ensemble.iterfilter.observe_p50_us": "us",
    "ensemble.iterfilter.flush_total_s": "s",
    "detector.refits_per_rating": "ratio",
    "trust.update_p50_us": "us",
    "trust.updates": "count",
    "trust.digest_rtt_p50_ms": "ms",
    "trust.table_bytes_p50": "B",
    "score.p50_us": "us",
    "score.cache_hit_ratio": "ratio",
    "score.miss_p50_us": "us",
    "rss.coordinator_mb": "MB",
    "rss.workers_mb": "MB",
}

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def load_traces(trace_dir: Path) -> List[dict]:
    """Every process's trace file in ``trace_dir``."""
    return [json.loads(path.read_text()) for path in sorted(trace_dir.glob("trace-*.json"))]


def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its children.

    Children run inside their parent on the parent's thread, so their
    intervals never overlap each other and the sum is the covered time.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for _, start, end, _, parent, _ in spans:
        if parent:
            covered[parent] += end - start
    return {sid: (end - start) - covered.get(sid, 0.0) for _, start, end, sid, _, _ in spans}


def _counter_total(texts: Iterable[str], family: str) -> float:
    """Sum of every sample of a Prometheus family across renders."""
    total = 0.0
    for text in texts:
        for line in text.splitlines():
            if line.startswith(family) and line[len(family) : len(family) + 1] in (" ", "{"):
                total += float(line.rsplit(" ", 1)[1])
    return total


class _Collector:
    """Accumulates named samples and derived values into Metrics."""

    def __init__(self) -> None:
        self.out: Dict[str, Metric] = {}

    def timing(self, name: str, seconds: List[float], tail_at: Optional[float] = None) -> None:
        """The median of a duration sample in the name's unit, or with
        ``tail_at`` its highest supported percentile up to that one."""
        unit = LAYER_METRICS[name]
        mid, top = timing_pair(seconds, _SCALE[unit], unit, tail_at or 99.0)
        metric = top if tail_at else mid
        if metric is not None:
            self.out[name] = metric

    def value(self, name: str, value: Optional[float], n: Optional[int] = None) -> None:
        if value is not None:
            self.out[name] = Metric(float(value), LAYER_METRICS[name], n=n)


def layer_metrics(traces: List[dict], extra: Optional[Dict[str, float]] = None) -> Dict[str, Metric]:
    """Per-layer metrics of one traced run.

    ``extra`` carries what the harness measured itself (client
    lateness and connect time, RSS by role, on-disk WAL bytes per
    rating), keyed by metric name.
    """
    by_name: Dict[str, List[list]] = defaultdict(list)
    selfs: Dict[tuple, float] = {}
    coord_end: Dict[int, float] = {}
    engine_processes = 0
    engine_texts: List[str] = []
    queue_depths: List[float] = []
    fsyncs: List[float] = []
    frame_bytes: List[tuple] = []
    read_waits: List[float] = []
    score_misses: List[float] = []
    for trace in traces:
        pid = trace["pid"]
        spans = trace["spans"]
        for sid, value in self_times(spans).items():
            selfs[(pid, sid)] = value
        span_type = {}
        first_send: Dict[int, float] = {}
        streamed = set()
        for span in spans:
            name, start, end, sid, parent, key = span
            by_name[name].append([pid, *span])
            if name == "coordinator.submit" and key is not None:
                coord_end[key] = end
            elif name == "framing.send":
                span_type[sid] = key
                first_send[parent] = min(first_send.get(parent, start), start)
            elif name == "store.stream":
                streamed.add(parent)
        for span in spans:
            name, start, end, sid, parent, key = span
            if name == "coordinator.score" and sid in first_send:
                read_waits.append(first_send[sid] - start)
            elif name == "engine.score" and sid in streamed:
                score_misses.append(end - start)
        frame_bytes.extend((span_type.get(sid), size) for sid, size in trace["frames"])
        fsyncs.extend(seconds for _, seconds in trace["fsyncs"])
        queue_depths.extend(trace["queue_depths"])
        engine_texts.extend(trace["metrics"]["engine"])
        if trace["metrics"]["engine"]:
            engine_processes += 1

    def durations(name: str, key=None) -> List[float]:
        return [
            end - start
            for _, _, start, end, _, _, k in by_name[name]
            if key is None or k == key
        ]

    def self_durations(name: str) -> List[float]:
        return [selfs[(pid, sid)] for pid, _, _, _, sid, _, _ in by_name[name]]

    submits = by_name["engine.submit"]
    ratings = len(submits)
    c = _Collector()
    for name, value in (extra or {}).items():
        c.value(name, value)
    if not ratings:
        return c.out

    c.timing("http.post_self_p50_us", self_durations("http.post"))
    c.timing("http.post_self_p99_us", self_durations("http.post"), 99.0)
    c.timing("http.get_self_p50_us", self_durations("http.get"))

    c.timing("coordinator.submit_self_p50_us", self_durations("coordinator.submit"))
    c.timing("coordinator.submit_p99_us", durations("coordinator.submit"), 99.0)
    hops = [
        start - coord_end[key]
        for _, _, start, _, _, _, key in submits
        if key is not None and key in coord_end
    ]
    c.timing("coordinator.queue_hop_p50_ms", hops)
    c.timing("coordinator.queue_hop_p99_ms", hops, 99.0)
    if by_name["coordinator.submit"]:
        c.value("coordinator.queue_depth_max", max(queue_depths, default=0.0))
    c.timing("coordinator.read_wait_p50_us", read_waits)
    c.timing("coordinator.read_wait_p99_us", read_waits, 99.0)

    c.timing("wal.coord.append_p50_us", durations("wal.append", "coord"))
    c.timing("wal.worker.append_p50_us", durations("wal.append", "engine"))
    c.timing("wal.fsync_p50_us", fsyncs)
    c.value("wal.fsyncs_per_rating", len(fsyncs) / ratings)

    if frame_bytes:
        ingest_frames = sum(1 for kind, _ in frame_bytes if kind == "ingest")
        c.value("framing.frames_per_rating", len(frame_bytes) / ratings)
        c.value("framing.bytes_per_rating", sum(size for _, size in frame_bytes) / ratings)
        if ingest_frames:
            c.value("framing.ratings_per_ingest_frame", ratings / ingest_frames)
        c.timing("framing.send_p50_us", durations("framing.send"))
        tables = [size for kind, size in frame_bytes if kind == "trust"]
        if tables:
            c.value("trust.table_bytes_p50", median(tables), n=len(tables))

    c.timing("engine.submit_p50_us", durations("engine.submit"))
    c.timing("engine.submit_p99_us", durations("engine.submit"), 99.0)
    engine_spans = [
        span for name in ("engine.submit", "engine.score", "engine.flush") for span in by_name[name]
    ]
    window = max(span[3] for span in engine_spans) - min(span[2] for span in engine_spans)
    busy = sum(span[3] - span[2] for span in engine_spans)
    if window > 0 and engine_processes:
        c.value("engine.busy_frac", busy / (window * engine_processes))
    c.value(
        "engine.flushes_per_1k",
        1000.0 * _counter_total(engine_texts, "repro_trust_updates_total") / ratings,
    )

    c.timing("store.add_p50_us", durations("store.add"))
    c.timing("store.stream_p50_us", durations("store.stream"))

    for source in ("ar", "cograph", "iterfilter"):
        observe = durations(f"ensemble.{source}.observe")
        if not observe:
            continue
        c.timing(f"ensemble.{source}.observe_p50_us", observe)
        c.value(f"ensemble.{source}.flush_total_s", sum(durations(f"ensemble.{source}.flush")))
    c.timing("ensemble.cograph.flush_p99_ms", durations("ensemble.cograph.flush"), 99.0)
    c.value(
        "detector.refits_per_rating",
        _counter_total(engine_texts, "repro_ar_refits_total") / ratings,
    )

    updates = durations("trust.update")
    c.timing("trust.update_p50_us", updates)
    c.value("trust.updates", len(updates))
    c.timing("trust.digest_rtt_p50_ms", durations("trust.delegate"))

    scores = durations("engine.score")
    if scores:
        c.timing("score.p50_us", scores)
        hits = _counter_total(engine_texts, "repro_score_cache_hits_total")
        misses = _counter_total(engine_texts, "repro_score_cache_misses_total")
        if hits + misses:
            c.value("score.cache_hit_ratio", hits / (hits + misses))
        c.timing("score.miss_p50_us", score_misses)
    return c.out
