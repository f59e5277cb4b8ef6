"""Change-point and variance-based detectors.

Two more comparison points for the AR detector:

* :class:`CusumDetector` -- the classic CUSUM (cumulative sum) mean
  change-point test.  A collusion campaign shifts the rating mean, so
  CUSUM *can* see strategy 2 in principle -- but the honest noise is so
  wide relative to the moderate bias that it needs far more samples
  than one campaign provides, and the object's own quality drift trips
  it.  Quantifying that trade-off positions the AR detector against
  the obvious textbook alternative.
* :class:`VarianceRatioDetector` -- an ablation oracle: flags windows
  whose sample variance is anomalously low relative to the stream's
  typical window variance (one-sided F-style test).  The AR model
  error under DC normalization is largely a variance statistic, so
  this detector isolates how much of the AR detector's power comes
  from the variance drop alone.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.detectors.base import SuspicionDetector, SuspicionReport, WindowVerdict
from repro.errors import ConfigurationError
from repro.ratings.stream import RatingStream
from repro.signal.windows import CountWindower, Window

__all__ = ["CusumDetector", "VarianceRatioDetector"]


class CusumDetector(SuspicionDetector):
    """Two-sided CUSUM test on the rating mean.

    Maintains the standard recursions

        g+_n = max(0, g+_{n-1} + (x_n - mu - drift))
        g-_n = max(0, g-_{n-1} - (x_n - mu + drift))

    against a reference mean estimated from the first ``burn_in``
    ratings; an alarm fires when either statistic exceeds
    ``threshold * sigma``, and the statistic resets afterward.

    Args:
        threshold: alarm level in units of the reference deviation
            (classic choices 4-6).
        drift: allowed slack per sample in sigma units (0.5 is the
            textbook value for detecting one-sigma shifts).
        burn_in: ratings used to estimate the reference mean/sigma.
        level: suspicion level charged to ratings between the change
            onset estimate and the alarm.
    """

    def __init__(
        self,
        threshold: float = 5.0,
        drift: float = 0.5,
        burn_in: int = 30,
        level: float = 0.5,
    ) -> None:
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if drift < 0:
            raise ConfigurationError(f"drift must be >= 0, got {drift}")
        if burn_in < 5:
            raise ConfigurationError(f"burn_in must be >= 5, got {burn_in}")
        self.threshold = float(threshold)
        self.drift = float(drift)
        self.burn_in = int(burn_in)
        self.level = float(level)

    def detect(self, stream: RatingStream) -> SuspicionReport:
        n = len(stream)
        if n <= self.burn_in:
            return SuspicionReport(stream=stream)
        values = stream.values
        times = stream.times
        mu = float(np.mean(values[: self.burn_in]))
        sigma = float(np.std(values[: self.burn_in]))
        if sigma <= 1e-9:
            sigma = 1e-9

        verdicts: List[WindowVerdict] = []
        g_pos = g_neg = 0.0
        onset = self.burn_in
        for i in range(self.burn_in, n):
            z = (values[i] - mu) / sigma
            g_pos = max(0.0, g_pos + z - self.drift)
            g_neg = max(0.0, g_neg - z - self.drift)
            if g_pos == 0.0 and g_neg == 0.0:
                onset = i + 1
            statistic = max(g_pos, g_neg)
            if statistic > self.threshold:
                indices = np.arange(onset, i + 1)
                verdicts.append(
                    WindowVerdict(
                        window=Window(
                            index=len(verdicts),
                            indices=indices,
                            start_time=float(times[indices[0]]),
                            end_time=float(times[i]),
                        ),
                        statistic=statistic,
                        suspicious=True,
                        level=self.level,
                    )
                )
                g_pos = g_neg = 0.0
                onset = i + 1
        return self._accumulate(stream, verdicts)


class VarianceRatioDetector(SuspicionDetector):
    """Flag windows whose variance drops below the stream's norm.

    Each count window's sample variance is compared against the median
    window variance via a one-sided F-test; windows whose ratio falls
    below the test's critical value are suspicious.

    Args:
        alpha: significance level of the one-sided F-test.
        windower: count windower (default 50 step 25).
        level: suspicion level for flagged windows.
    """

    def __init__(
        self,
        alpha: float = 0.01,
        windower: CountWindower | None = None,
        level: float = 0.5,
    ) -> None:
        if not 0.0 < alpha < 0.5:
            raise ConfigurationError(f"alpha must lie in (0, 0.5), got {alpha}")
        self.alpha = float(alpha)
        self.windower = windower if windower is not None else CountWindower(size=50, step=25)
        self.level = float(level)

    def detect(self, stream: RatingStream) -> SuspicionReport:
        if len(stream) == 0:
            return SuspicionReport(stream=stream)
        times = stream.times
        values = stream.values
        windows = list(self.windower.windows(times))
        if len(windows) < 3:
            return SuspicionReport(stream=stream)
        variances = np.array(
            [float(np.var(w.values(values), ddof=1)) for w in windows]
        )
        reference = float(np.median(variances))
        if reference <= 1e-12:
            return SuspicionReport(stream=stream)
        from scipy import stats

        df = windows[0].size - 1
        critical = float(stats.f.ppf(self.alpha, df, df))
        verdicts: List[WindowVerdict] = []
        for window, variance in zip(windows, variances):
            ratio = variance / reference
            suspicious = ratio < critical
            verdicts.append(
                WindowVerdict(
                    window=window,
                    statistic=ratio,
                    suspicious=suspicious,
                    level=self.level if suspicious else 0.0,
                )
            )
        return self._accumulate(stream, verdicts)
