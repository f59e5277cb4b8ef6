"""Whiteness diagnostics for rating sequences.

The paper's detection philosophy is that honest mean-removed ratings are
approximately white noise while collaborative campaigns inject a
correlated signal.  These helpers quantify that claim directly --
useful both for validating simulated traces and as an ablation detector
(Ljung-Box on the window instead of the AR model error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SignalModelError
from repro.signal.levinson import autocorrelation_sequence

__all__ = ["LjungBoxResult", "sample_autocorrelation", "ljung_box"]


@dataclass(frozen=True)
class LjungBoxResult:
    """Ljung-Box portmanteau test result.

    Attributes:
        statistic: the Q statistic.
        p_value: probability of a Q at least this large under the
            white-noise null.
        lags: number of autocorrelation lags pooled into Q.
        is_white: True when the null is *not* rejected at ``alpha``.
        alpha: significance level used for ``is_white``.
    """

    statistic: float
    p_value: float
    lags: int
    is_white: bool
    alpha: float


def sample_autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized sample autocorrelation ``rho[0..max_lag]`` (``rho[0]=1``).

    The series is mean-removed first; a zero-variance series raises
    :class:`SignalModelError` because its autocorrelation is undefined.
    """
    x = np.asarray(x, dtype=float).ravel()
    centered = x - np.mean(x)
    r = autocorrelation_sequence(centered, max_lag)
    # Relative floor: a constant series leaves only rounding residue.
    if r[0] <= 1e-15 * (1.0 + float(np.mean(x)) ** 2):
        raise SignalModelError("autocorrelation undefined for constant series")
    return r / r[0]


def ljung_box(x: np.ndarray, lags: int = 10, alpha: float = 0.05) -> LjungBoxResult:
    """Ljung-Box test for serial correlation.

    Args:
        x: the series to test (mean is removed internally).
        lags: number of autocorrelation lags to pool; clipped to
            ``len(x) - 2`` when the series is short.
        alpha: significance level for the ``is_white`` verdict.

    Returns:
        A :class:`LjungBoxResult`.  A *small* p-value means the series
        is serially correlated -- i.e. a suspicious rating window.
    """
    from scipy import stats

    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise SignalModelError(f"Ljung-Box needs at least 4 samples, got {n}")
    lags = int(min(lags, n - 2))
    if lags < 1:
        raise SignalModelError("no usable lags for Ljung-Box")
    rho = sample_autocorrelation(x, lags)
    ks = np.arange(1, lags + 1)
    q = float(n * (n + 2) * np.sum(rho[1:] ** 2 / (n - ks)))
    p_value = float(stats.chi2.sf(q, df=lags))
    return LjungBoxResult(
        statistic=q,
        p_value=p_value,
        lags=lags,
        is_white=p_value > alpha,
        alpha=alpha,
    )
