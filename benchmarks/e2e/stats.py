"""Order statistics for the end-to-end benchmark.

Every timing is reported as a median plus a tail, and a tail is only
as trustworthy as the samples beyond it: a p99 read from 200 samples
rests on two of them.  :func:`tail` therefore reports the highest
percentile (at or below the one asked for) that has at least
:data:`MIN_BEYOND` samples beyond it, and says which percentile that
was, instead of quoting a p99 the sample cannot support.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "LADDER",
    "MIN_BEYOND",
    "Metric",
    "median",
    "percentile",
    "tail",
    "timing_pair",
]


@dataclass
class Metric:
    """One reported number: its value, unit and the samples behind it.

    ``label`` names the percentile a tail was actually read at when
    the sample could not support the one asked for (see :func:`tail`).
    """

    value: float
    unit: str
    n: Optional[int] = None
    label: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"value": self.value, "unit": self.unit}
        if self.n is not None:
            out["n"] = self.n
        if self.label is not None:
            out["label"] = self.label
        return out

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Percentiles a tail may step down through, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples.

    The small epsilon absorbs binary rounding (99.9% of 10,000 computes
    as 9990.000000000002, which must still rank 9990).
    """
    return max(math.ceil(q * n / 100.0 - 1e-9), 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def _beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail(
    values: Sequence[float], wanted: float = 99.0
) -> Optional[Tuple[str, float]]:
    """``(label, value)`` of the highest supported percentile <= ``wanted``.

    Steps down :data:`LADDER` until at least :data:`MIN_BEYOND` samples
    lie beyond the percentile; returns None (refuses) when not even the
    median has that many.  The label reads like ``"p99"`` or ``"p99.9"``.
    """
    n = len(values)
    for q in LADDER:
        if q > wanted:
            continue
        if _beyond(n, q) >= MIN_BEYOND:
            return "p" + f"{q:g}".replace(".", ""), percentile(values, q)
    return None


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def timing_pair(
    values: Sequence[float], scale: float, unit: str, wanted: float = 99.0
) -> Tuple[Optional[Metric], Optional[Metric]]:
    """Median and supported tail of ``values`` (seconds) times ``scale``.

    Either is None when the sample is empty or too small for a tail.
    """
    if not values:
        return None, None
    mid = Metric(median(values) * scale, unit, n=len(values))
    found = tail(values, wanted)
    if found is None:
        return mid, None
    label, value = found
    return mid, Metric(value * scale, unit, n=len(values), label=label)
