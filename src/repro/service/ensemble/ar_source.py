"""The paper's AR signal-model detector as an ensemble source.

Wraps one :class:`~repro.detectors.online.OnlineARDetector` per active
product plus the charge-once-per-position accounting that used to live
inside the engine: each suspicious window verdict charges every
not-yet-charged position of the detector's current window with the
constant ``scale`` level, so the mass returned by :meth:`flush` equals
:meth:`OnlineARDetector.suspicious_raters` for an identical stream --
the equivalence the engine's trust pipeline was built on.

Beyond the protocol, the source exposes :attr:`last_flagged` (did the
most recent ``observe`` emit a suspicious verdict?, feeding
``SubmitResult.flagged``) and :meth:`flush_counts` (per-rater flagged
rating counts, the ``s_i`` term of Procedure 2) -- AR is the one
source whose alarms map one-to-one onto individual ratings, so it
alone reports them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.detectors.online import OnlineARDetector
from repro.ratings.models import Rating
from repro.service.ensemble.base import OnlineSuspicionSource, unit_suspicion

__all__ = ["ARSuspicionSource"]


class ARSuspicionSource(OnlineSuspicionSource):
    """Per-product streaming AR detectors behind the source protocol.

    Args:
        order: AR model order.
        threshold: normalized model-error alarm threshold (in (0, 1)).
        window_size: ratings per streaming analysis window.
        stride: arrivals between AR refits.
        method: AR estimator name (see ``repro.signal.ar``).
        scale: suspicion level charged per flagged rating.
        incremental: refit through the sliding-window normal equations.
        max_raters_per_product: bound on each detector's
            position -> rater map (LRU eviction, see
            :meth:`OnlineARDetector.prune`).
    """

    name = "ar"

    def __init__(
        self,
        order: int = 4,
        threshold: float = 0.10,
        window_size: int = 50,
        stride: int = 5,
        method: str = "covariance",
        scale: float = 1.0,
        incremental: bool = False,
        max_raters_per_product: Optional[int] = None,
    ) -> None:
        super().__init__(threshold=threshold, score_every=1)
        self.order = int(order)
        self.window_size = int(window_size)
        self.stride = int(stride)
        self.method = method
        self.scale = unit_suspicion(scale)
        self.incremental = bool(incremental)
        self.max_raters_per_product = max_raters_per_product
        self.detectors: Dict[int, OnlineARDetector] = {}
        # Last window_size (position, rater_id) pairs per product: the
        # positions a future verdict's window can still cover.
        self.recent: Dict[int, Deque[Tuple[int, int]]] = {}
        self.charged: Dict[int, Set[int]] = {}
        self._pending_mass: Dict[int, float] = {}
        self._pending_counts: Dict[int, int] = {}
        self.last_flagged = False
        self.n_evaluations = 0
        self.n_flagged = 0
        self.on_evaluation: Optional[Callable[[], None]] = None
        self.on_flag: Optional[Callable[[], None]] = None
        self.on_new_product: Optional[Callable[[], None]] = None

    def _make_detector(self) -> OnlineARDetector:
        return OnlineARDetector(
            order=self.order,
            threshold=self.threshold,
            window_size=self.window_size,
            stride=self.stride,
            method=self.method,
            scale=self.scale,
            incremental=self.incremental,
            max_raters_per_product=self.max_raters_per_product,
            on_eviction=self._record_evictions,
        )

    # -- protocol ----------------------------------------------------------

    def observe(self, rating: Rating) -> None:
        pid, rid = rating.product_id, rating.rater_id
        detector = self.detectors.get(pid)
        if detector is None:
            detector = self._make_detector()
            self.detectors[pid] = detector
            self.recent[pid] = deque(maxlen=self.window_size)
            self.charged[pid] = set()
            if self.on_new_product is not None:
                self.on_new_product()
        self.recent[pid].append((detector.n_seen, rid))
        verdict = detector.observe(rating)
        self.last_flagged = False
        if verdict is not None:
            self.n_evaluations += 1
            if self.on_evaluation is not None:
                self.on_evaluation()
            if verdict.suspicious:
                self.last_flagged = True
                self.n_flagged += 1
                if self.on_flag is not None:
                    self.on_flag()
                self._charge_window(pid, detector)

    def _charge_window(self, pid: int, detector: OnlineARDetector) -> None:
        """Charge the detector's current window, once per position.

        The verdict's window is exactly the last ``len(buffer)``
        positions, which is what ``self.recent[pid]`` holds; each
        never-charged position adds ``scale`` suspicion to its rater
        -- the batch max-then-sum rule for a constant scale.
        """
        charged = self.charged[pid]
        scale = self.scale
        for position, rater_id in self.recent[pid]:
            if position in charged:
                continue
            charged.add(position)
            self._pending_mass[rater_id] = (
                self._pending_mass.get(rater_id, 0.0) + scale
            )
            self._pending_counts[rater_id] = (
                self._pending_counts.get(rater_id, 0) + 1
            )
        # Positions that fell out of the window can never be charged
        # again; keep the set bounded.
        cutoff = detector.n_seen - self.window_size
        if cutoff > 0:
            charged -= {p for p in charged if p < cutoff}

    def flush(self) -> Dict[int, float]:
        mass = self._pending_mass
        self._pending_mass = {}
        return mass

    def flush_counts(self) -> Dict[int, int]:
        """Per-rater flagged-rating counts since the last call."""
        counts = self._pending_counts
        self._pending_counts = {}
        return counts

    def prune(self) -> None:
        for detector in self.detectors.values():
            detector.prune()

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        products = {}
        for pid, detector in self.detectors.items():
            products[str(pid)] = {
                "detector": detector.state_dict(),
                "recent": [[p, r] for p, r in self.recent[pid]],
                "charged": sorted(self.charged[pid]),
            }
        return {
            "products": products,
            "pending_mass": {str(k): v for k, v in self._pending_mass.items()},
            "pending_counts": {str(k): v for k, v in self._pending_counts.items()},
            "n_evaluations": self.n_evaluations,
            "n_flagged": self.n_flagged,
        }

    def load_state(self, state: dict) -> None:
        self.detectors = {}
        self.recent = {}
        self.charged = {}
        for pid_str, product_state in state["products"].items():
            pid = int(pid_str)
            detector = self._make_detector()
            detector.load_state(product_state["detector"])
            self.detectors[pid] = detector
            self.recent[pid] = deque(
                ((int(p), int(r)) for p, r in product_state["recent"]),
                maxlen=self.window_size,
            )
            self.charged[pid] = {int(p) for p in product_state["charged"]}
            if self.on_new_product is not None:
                self.on_new_product()
        self._pending_mass = {
            int(k): float(v) for k, v in state["pending_mass"].items()
        }
        self._pending_counts = {
            int(k): int(v) for k, v in state["pending_counts"].items()
        }
        self.n_evaluations = int(state.get("n_evaluations", 0))
        self.n_flagged = int(state.get("n_flagged", 0))
        self.last_flagged = False
