"""Incremental and batched fast paths for covariance-method AR fits.

Two performance-critical callers refit the same covariance-method AR
model over and over:

* the streaming :class:`~repro.detectors.online.OnlineARDetector`
  refits after every ``stride`` arrivals on a buffer that changed by
  only ``stride`` samples, and
* the batch :class:`~repro.detectors.ar_detector.ARModelErrorDetector`
  fits every (heavily overlapping) window of a long stream.

Both previously rebuilt an ``(N - p) x p`` least-squares problem from
scratch per fit.  This module exploits the structure of the covariance
design matrix -- each row involves only ``p + 1`` *consecutive*
samples -- to make those fits cheap:

* :class:`SlidingCovarianceFitter` maintains the normal equations
  (Gram matrix ``X^T X`` and cross vector ``X^T y``) of a sliding
  buffer under rank-1 updates as samples enter and rank-1 downdates as
  they leave, so a refit costs ``O(stride * p^2 + p^3)`` instead of
  ``O(N * p^2)`` with SVD constants.
* :func:`fit_windows` fits *all* windows of a stream from one shared
  ``sliding_window_view`` plus stacked ``np.linalg.solve`` calls --
  a handful of vectorized operations regardless of the window count.

Numerical equivalence, not approximate agreement, is the contract:
both paths fall back to the reference least-squares solver whenever
the Gram matrix is ill-conditioned (near-constant or rank-deficient
windows), and the incremental fitter periodically rebuilds its sums
from the buffer so floating-point drift stays below the equivalence
tolerance (see ``tests/test_signal_sliding.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError, InsufficientDataError, SignalModelError
from repro.signal.ar import (
    ARModel,
    AR_METHODS,
    _ENERGY_EPS,
    _GRAM_COND_LIMIT,
    _lstsq_coefficients,
    arcov,
    normalized_model_error,
)
from repro.signal.windows import Window

__all__ = ["SlidingCovarianceFitter", "fit_windows"]

# The incremental fitter accumulates its moment sums by block
# updates/downdates; after this many pushes the sums are rebuilt
# exactly from the buffer so rounding drift cannot accumulate past the
# equivalence bar.
_REBUILD_EVERY = 64

# Conditioning guard for the incremental solve: the squared ratio of
# the extreme Cholesky pivots (a fast lower bound on the Gram condition
# number).  Kept well under the ~1e7 that would let eps-level drift
# reach the 1e-9 equivalence bar, because a lower bound can
# underestimate the true condition number by a modest factor.
_INCREMENTAL_COND_LIMIT = 1e4


class SlidingCovarianceFitter:
    """Incremental covariance-method AR fitter over a sliding buffer.

    Feed samples with :meth:`push`; the fitter keeps at most
    ``capacity`` of them and maintains the covariance-method normal
    equations of the current contents.  :meth:`fit` then solves a
    ``p x p`` system instead of rebuilding the full least-squares
    problem, returning the same :class:`~repro.signal.ar.ARModel`
    statistics as :func:`~repro.signal.ar.arcov` on the buffer.

    Because every design row spans ``p + 1`` consecutive samples,
    sliding the window by ``s`` samples adds exactly ``s`` rows and
    removes exactly ``s``; no other row changes.  :meth:`push` is
    therefore just an O(1) append -- the row deltas are applied lazily
    at :meth:`fit` time as two small vectorized block products, so a
    refit costs ``O(s * p^2 + p^3)`` regardless of the buffer length.
    Ill-conditioned buffers (constant or near-constant ratings) are
    delegated to the exact reference solver.

    Args:
        order: AR model order ``p``.
        capacity: maximum samples kept; must exceed ``2 * order`` so a
            full buffer is always fittable.
    """

    def __init__(self, order: int, capacity: int) -> None:
        if order < 1:
            raise ConfigurationError(f"model order must be >= 1, got {order}")
        if capacity <= 2 * order:
            raise ConfigurationError(
                f"capacity must exceed 2 * order = {2 * order}, got {capacity}"
            )
        self.order = int(order)
        self.capacity = int(capacity)
        # Samples since the last trim; _history[0] is global sample
        # index _offset, and _n counts every sample ever pushed.
        self._history: List[float] = []
        self._offset = 0
        self._n = 0
        # Moment matrix M = sum over design rows of outer(w, w) where
        # w = [target, lag_1, ..., lag_p]; the Gram matrix, cross
        # vector, and target energy are all submatrices of M, so one
        # block product updates all three.  Covers global design rows
        # [_row_lo, _row_hi) (row r predicts sample r + p).
        self._moment = np.zeros((order + 1, order + 1))
        self._row_lo = 0
        self._row_hi = 0
        self._since_rebuild = 0
        # Row template: element k of a design row is sample lo + p - k.
        self._reversed_lags = np.arange(order, -1, -1)

    def __len__(self) -> int:
        return min(self._n, self.capacity)

    def _buffer_start(self) -> int:
        return max(0, self._n - self.capacity)

    @property
    def full(self) -> bool:
        return self._n >= self.capacity

    @property
    def values(self) -> np.ndarray:
        """Current buffer contents, oldest first."""
        return np.asarray(
            self._history[self._buffer_start() - self._offset :], dtype=float
        )

    def reset(self) -> None:
        """Drop the buffer and all accumulated sums."""
        self._history.clear()
        self._offset = 0
        self._n = 0
        self._moment[:] = 0.0
        self._row_lo = 0
        self._row_hi = 0
        self._since_rebuild = 0

    # -- maintenance -------------------------------------------------------

    def push(self, value: float) -> None:
        """Append one sample, evicting the oldest when at capacity."""
        value = float(value)
        if not math.isfinite(value):
            raise SignalModelError(f"sample is not finite: {value!r}")
        self._history.append(value)
        self._n += 1
        self._since_rebuild += 1

    def extend(self, values: Sequence[float]) -> None:
        """Push a sequence of samples in order."""
        for value in values:
            self.push(value)

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        """Design rows [lo, hi) as [target, lag_1..lag_p] vectors."""
        if hi <= lo:
            return np.zeros((0, self.order + 1))
        start = lo - self._offset
        segment = np.asarray(
            self._history[start : hi + self.order - self._offset], dtype=float
        )
        return sliding_window_view(segment, self.order + 1)[:, ::-1]

    def rebuild(self) -> None:
        """Recompute the sums exactly from the buffer (drift reset)."""
        lo = self._buffer_start()
        hi = max(lo, self._n - self.order)
        self._trim(lo)
        self._row_lo, self._row_hi = lo, hi
        self._since_rebuild = 0
        if hi == lo:
            self._moment[:] = 0.0
            return
        rows = self._rows(lo, hi)
        self._moment = rows.T @ rows

    def _trim(self, keep_from: int) -> None:
        if keep_from > self._offset:
            del self._history[: keep_from - self._offset]
            self._offset = keep_from

    def _sync(self) -> None:
        """Advance the moment sums to the current buffer contents."""
        lo = self._buffer_start()
        hi = max(lo, self._n - self.order)
        if lo == self._row_lo and hi == self._row_hi:
            return
        if lo >= self._row_hi:
            # The windows do not share a row; summing fresh is cheaper
            # (and drift-free) compared to remove-all-then-add-all.
            self.rebuild()
            return
        # One signed block product updates Gram, cross, and energies:
        # +1 rows entered the window, -1 rows left it.  The two sample
        # regions (added rows [row_hi, hi), removed rows [row_lo, lo))
        # are spliced into one segment so a single fancy index builds
        # every signed row -- sliding_window_view's per-call overhead
        # dominates at this block size.
        p = self.order
        n_added = hi - self._row_hi
        n_removed = lo - self._row_lo
        base = self._offset
        segment = np.asarray(
            self._history[self._row_hi - base : hi + p - base]
            + self._history[self._row_lo - base : lo + p - base],
            dtype=float,
        )
        starts = np.arange(n_added + n_removed)
        starts[n_added:] += p
        rows = segment[starts[:, None] + self._reversed_lags]
        signs = np.ones(len(rows))
        signs[n_added:] = -1.0
        self._moment += (rows * signs[:, None]).T @ rows
        self._row_lo, self._row_hi = lo, hi
        self._trim(lo)

    # -- fitting -----------------------------------------------------------

    def fit(self) -> ARModel:
        """Covariance-method AR model of the current buffer.

        Coefficients, energies, and the normalized model error match
        :func:`~repro.signal.ar.arcov` on :attr:`values`; the
        ``residuals`` field is ``None`` (the fast path never forms
        the residual vector).

        Raises:
            InsufficientDataError: when fewer than ``2 * order + 1``
                samples are buffered.
        """
        m = len(self)
        p = self.order
        if m <= 2 * p:
            raise InsufficientDataError(
                f"covariance AR fitting of order {p} needs more than "
                f"{2 * p} samples, got {m}"
            )
        if self._since_rebuild >= _REBUILD_EVERY:
            self.rebuild()
        else:
            self._sync()
        gram = self._moment[1:, 1:]
        cross = self._moment[1:, 0]
        target_energy = self._moment[0, 0]
        solution = None
        try:
            # Cholesky doubles as the conditioning guard: it fails on
            # (numerically) indefinite Grams, and the squared pivot
            # ratio lower-bounds the condition number at a fraction of
            # an SVD's cost.
            pivots = np.linalg.cholesky(gram).diagonal()
            if float(pivots.max() / pivots.min()) ** 2 <= _INCREMENTAL_COND_LIMIT:
                solution = np.linalg.solve(gram, -cross)
        except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError):
            solution = None
        if solution is None:
            # Ill-conditioned buffer: defer to the exact reference path.
            model = arcov(self.values, p)
            # The buffer sums may carry drift precisely when conditioning
            # is poor; start the next fits from exact sums.
            self.rebuild()
            return model
        a = np.concatenate(([1.0], solution))
        # ||y + X a||^2 = ty + 2 a.c + a.G.a collapses to ty + a.c at
        # the normal-equations solution (G a = -c): O(p), no data pass.
        error_energy = max(float(target_energy + np.dot(solution, cross)), 0.0)
        signal_energy = float(target_energy)
        return ARModel(
            order=p,
            coefficients=a,
            error_energy=error_energy,
            signal_energy=signal_energy,
            normalized_error=normalized_model_error(error_energy, signal_energy),
            method="covariance",
            n_samples=m,
            residuals=None,
        )


def _contiguous_start(window: Window) -> Optional[int]:
    """Start index when the window covers a contiguous index range."""
    idx = window.indices
    if idx.size == 0:
        return None
    if int(idx[-1]) - int(idx[0]) + 1 != idx.size:
        return None
    return int(idx[0])


def _fit_one(values: np.ndarray, window: Window, order: int, method: str):
    try:
        return AR_METHODS[method](window.values(values), order)
    except InsufficientDataError:
        return None


def fit_windows(
    values: Sequence[float],
    order: int,
    windower,
    times: Optional[Sequence[float]] = None,
    method: str = "covariance",
    min_window: int = 0,
) -> List[Tuple[Window, ARModel]]:
    """Fit an AR model to every window of a stream, batched.

    For the covariance method all same-size contiguous windows are
    fitted together: one shared ``sliding_window_view`` over the full
    signal provides every design row, per-window Gram matrices and
    cross vectors come from batched matrix products, and the
    coefficient systems are solved with one stacked
    ``np.linalg.solve``.  Windows whose Gram matrix is ill-conditioned
    are refitted individually through the reference solver, so results
    are numerically equivalent to fitting each window with
    :func:`~repro.signal.ar.arcov`.  Other estimators (and
    non-contiguous windows) fall back to a per-window loop.

    Args:
        values: rating values ordered by time.
        order: AR model order ``p``.
        windower: a :class:`~repro.signal.windows.CountWindower` or
            :class:`~repro.signal.windows.TimeWindower`.
        times: timestamps parallel to ``values``; defaults to the
            sample indices (count windowers only need the length).
        method: AR estimator name (see ``repro.signal.ar.AR_METHODS``).
        min_window: skip windows with fewer samples than this.

    Returns:
        ``(window, model)`` pairs in window order; windows that are
        too small to fit (``size <= 2 * order`` or below
        ``min_window``) are skipped.
    """
    if order < 1:
        raise SignalModelError(f"model order must be >= 1, got {order}")
    if method not in AR_METHODS:
        raise ConfigurationError(
            f"unknown AR method {method!r}; choose from {sorted(AR_METHODS)}"
        )
    values = np.asarray(values, dtype=float).ravel()
    if times is None:
        times = np.arange(values.size, dtype=float)
    minimum = max(int(min_window), 2 * order + 1)
    windows = [w for w in windower.windows(times) if w.size >= minimum]
    if not windows:
        return []

    if method != "covariance":
        fitted = [(w, _fit_one(values, w, order, method)) for w in windows]
        return [(w, m) for w, m in fitted if m is not None]

    if not np.all(np.isfinite(values)):
        raise SignalModelError("signal contains NaN or infinite samples")

    p = order
    # Row j of the shared lag matrix is [x[j+p], x[j+p-1], ..., x[j]]:
    # target first, then the p lags -- every window's design rows are a
    # contiguous block of these.
    lagged = sliding_window_view(values, p + 1)[:, ::-1]
    models: dict = {}
    batched: dict = {}
    for position, window in enumerate(windows):
        start = _contiguous_start(window)
        if start is None:
            models[position] = _fit_one(values, window, order, method)
            continue
        batched.setdefault(window.size, []).append((position, start))

    for size, group in batched.items():
        starts = np.array([start for _, start in group])
        rows = starts[:, None] + np.arange(size - p)[None, :]
        block = lagged[rows]
        targets = block[:, :, 0]
        designs = block[:, :, 1:]
        grams = np.einsum("kij,kil->kjl", designs, designs)
        crosses = np.einsum("kij,ki->kj", designs, targets)
        # For symmetric PSD Grams cond = lambda_max / lambda_min, and
        # eigvalsh is much cheaper than the SVD behind np.linalg.cond.
        eigs = np.linalg.eigvalsh(grams)
        good = (eigs[:, 0] > 0.0) & (
            eigs[:, -1] <= _GRAM_COND_LIMIT * eigs[:, 0]
        )
        solutions = np.empty((len(group), p))
        if good.any():
            try:
                solutions[good] = np.linalg.solve(
                    grams[good], -crosses[good][..., None]
                )[..., 0]
            except np.linalg.LinAlgError:
                good = np.zeros(len(group), dtype=bool)
        for k in np.flatnonzero(~good):
            solutions[k] = _lstsq_coefficients(designs[k], targets[k])
        residuals = targets + np.matmul(designs, solutions[..., None])[..., 0]
        error_energies = np.einsum("ki,ki->k", residuals, residuals)
        signal_energies = np.einsum("ki,ki->k", targets, targets)
        normalized = np.where(
            signal_energies <= _ENERGY_EPS,
            0.0,
            np.clip(
                error_energies / np.maximum(signal_energies, _ENERGY_EPS),
                0.0,
                1.0,
            ),
        )
        coefficients = np.concatenate(
            (np.ones((len(group), 1)), solutions), axis=1
        )
        for k, (position, start) in enumerate(group):
            models[position] = ARModel(
                order=p,
                coefficients=coefficients[k],
                error_energy=float(error_energies[k]),
                signal_energy=float(signal_energies[k]),
                normalized_error=float(normalized[k]),
                method="covariance",
                n_samples=size,
                residuals=residuals[k],
            )

    return [
        (window, models[position])
        for position, window in enumerate(windows)
        if models.get(position) is not None
    ]
