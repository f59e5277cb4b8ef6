"""Dependency-free service metrics with a Prometheus text renderer.

A production rating portal needs to answer "is the service healthy and
how hard is it working?" without growing a metrics dependency.  This
module provides the three Prometheus primitives the service layer uses
-- :class:`Counter`, :class:`Gauge`, :class:`Histogram` -- behind a
:class:`MetricsRegistry` that renders the Prometheus text exposition
format (version 0.0.4), the format scraped from ``GET /metrics``.

All mutations are thread-safe: the registry guards family creation and
each metric guards its own samples, so hot ingest paths never contend
on a global lock.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: The families both serving tiers expose -- the in-process engine and
#: the cluster coordinator -- declared once so the two ``/metrics``
#: pages describe them identically.  name -> (type, help text); the
#: registry supplies the help text and rejects any other type.  A
#: coordinator times its own ingest WAL, counts its own score-view
#: hits and misses, and mirrors worker totals into the counters it
#: cannot observe directly.
SHARED_FAMILIES: Dict[str, Tuple[str, str]] = {
    "repro_ingest_latency_seconds": (
        "histogram", "Wall time spent per submit() call."
    ),
    "repro_ratings_accepted_total": (
        "counter", "Ratings accepted (WAL-logged before the ack)."
    ),
    "repro_ratings_rejected_total": ("counter", "Ratings refused at ingest."),
    "repro_ar_refits_total": ("counter", "Streaming AR model evaluations."),
    "repro_windows_flagged_total": (
        "counter", "Suspicious window verdicts emitted."
    ),
    "repro_trust_updates_total": (
        "counter", "Trust manager flushes (Procedure 2 runs)."
    ),
    "repro_score_cache_hits_total": (
        "counter",
        "score() calls answered from a cache (the engine's per-product "
        "aggregates, or the coordinator's view of worker answers).",
    ),
    "repro_score_cache_misses_total": (
        "counter",
        "score() calls no cache answered (re-aggregated in process, or "
        "asked of the owning worker).",
    ),
    "repro_wal_fsync_seconds": ("histogram", "Duration of WAL fsync calls."),
    "repro_wal_segments": ("gauge", "WAL segment files currently on disk."),
}


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (integers without a dot)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_suffix(labels: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(labels) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in items)
    return "{" + body + "}"


class _Metric:
    """Base class: one sample of one metric family (fixed labels)."""

    def __init__(self, labels: _LabelKey) -> None:
        self._labels = labels
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing count (events, ratings, flushes)."""

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self, labels: _LabelKey) -> None:
        super().__init__(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    def inc_to(self, value: float) -> None:
        """Raise the counter to ``value`` if it is below it.

        Monotone-set for mirroring an external cumulative counter
        (e.g. aggregated worker-process totals) without double
        counting: re-applying the same total is a no-op, and a stale
        lower total never moves the counter backwards.
        """
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render(self, name: str) -> List[str]:
        return [f"{name}{_label_suffix(self._labels)} {_format_value(self.value)}"]


class Gauge(_Metric):
    """A value that can go up and down (queue depth, active products)."""

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self, labels: _LabelKey) -> None:
        super().__init__(labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render(self, name: str) -> List[str]:
        return [f"{name}{_label_suffix(self._labels)} {_format_value(self.value)}"]


class Histogram(_Metric):
    """Distribution over fixed buckets (latencies, fsync times).

    Buckets are cumulative upper bounds; a ``+Inf`` bucket is always
    appended, so ``observe`` never drops a sample.
    """

    _GUARDED_BY = {"_counts": "_lock", "_count": "_lock", "_sum": "_lock"}

    def __init__(self, labels: _LabelKey, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(labels)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ConfigurationError(f"duplicate histogram buckets: {bounds}")
        self._bounds = bounds
        self._counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1

    def time(self) -> "_HistogramTimer":
        """Context manager that observes the elapsed wall time."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _render(self, name: str) -> List[str]:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        lines = []
        for bound, cumulative in zip(self._bounds, counts):
            suffix = _label_suffix(self._labels, [("le", _format_value(bound))])
            lines.append(f"{name}_bucket{suffix} {cumulative}")
        inf_suffix = _label_suffix(self._labels, [("le", "+Inf")])
        lines.append(f"{name}_bucket{inf_suffix} {total}")
        lines.append(f"{name}_sum{_label_suffix(self._labels)} {_format_value(acc)}")
        lines.append(f"{name}_count{_label_suffix(self._labels)} {total}")
        return lines


class _HistogramTimer:
    """Times a ``with`` block into a histogram."""

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _Family:
    """One named metric family with per-labelset children."""

    def __init__(self, name: str, metric_type: str, help_text: str) -> None:
        self.name = name
        self.metric_type = metric_type
        self.help_text = help_text
        self.children: Dict[_LabelKey, _Metric] = {}


class MetricsRegistry:
    """Creates, deduplicates, and renders metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    the same name and labels twice returns the same object, so call
    sites never need to share references explicitly.  Asking for an
    existing name with a different type raises.
    """

    _GUARDED_BY = {"_families": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- creation ---------------------------------------------------------

    def _family(self, name: str, metric_type: str, help_text: str) -> _Family:
        if name in SHARED_FAMILIES:
            shared_type, help_text = SHARED_FAMILIES[name]
            if shared_type != metric_type:
                raise ConfigurationError(
                    f"metric {name!r} is a shared {shared_type}, not {metric_type}"
                )
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, metric_type, help_text)
                self._families[name] = family
            elif family.metric_type != metric_type:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.metric_type}, "
                    f"not {metric_type}"
                )
            return family

    @staticmethod
    def _label_key(labels: Optional[Dict[str, str]]) -> _LabelKey:
        if not labels:
            return ()
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def counter(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        """Get or create a counter sample."""
        family = self._family(name, "counter", help_text)
        key = self._label_key(labels)
        with self._lock:
            if key not in family.children:
                family.children[key] = Counter(key)
            return family.children[key]  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        """Get or create a gauge sample."""
        family = self._family(name, "gauge", help_text)
        key = self._label_key(labels)
        with self._lock:
            if key not in family.children:
                family.children[key] = Gauge(key)
            return family.children[key]  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram sample."""
        family = self._family(name, "histogram", help_text)
        key = self._label_key(labels)
        with self._lock:
            if key not in family.children:
                family.children[key] = Histogram(key, buckets=buckets)
            return family.children[key]  # type: ignore[return-value]

    # -- introspection ----------------------------------------------------

    def names(self) -> List[str]:
        """Sorted family names currently registered."""
        with self._lock:
            return sorted(self._families)

    def render(self) -> str:
        """Render every family in the Prometheus text format."""
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
            snapshots: List[Tuple[_Family, List[_Metric]]] = [
                (family, [family.children[k] for k in sorted(family.children)])
                for family in families
            ]
        lines: List[str] = []
        for family, children in snapshots:
            if family.help_text:
                lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.metric_type}")
            for child in children:
                lines.extend(child._render(family.name))
        return "\n".join(lines) + "\n"
