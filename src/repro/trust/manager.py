"""The trust manager (right half of Fig. 1).

Orchestrates the observation buffer, Procedure 2 trust updates, record
maintenance (initialization + forgetting), malicious-rater detection,
and -- when recommendations are available -- indirect trust through the
recommendation graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, UnknownRaterError
from repro.trust.buffers import ObservationBuffer, RecommendationBuffer
from repro.trust.entropy_trust import entropy_trust_inverse
from repro.trust.propagation import RecommendationGraph
from repro.trust.records import RecordMaintenance, TrustRecord

__all__ = ["TrustManagerConfig", "TrustManager"]


@dataclass(frozen=True)
class TrustManagerConfig:
    """Knobs of the trust manager.

    Attributes:
        badness_weight: Procedure 2's ``b`` -- relative badness of a
            suspicious rating versus a filtered rating (paper: 1.0).
        detection_threshold: raters whose trust falls below this are
            declared malicious (paper: threshold_sus = 0.5).
        forgetting_factor: exponential evidence discount per update
            (1.0 = no forgetting, the Section IV setting).
        indirect_weight: blend factor for indirect trust when
            recommendations exist: ``T = (1 - w) * direct + w * indirect``.
    """

    badness_weight: float = 1.0
    detection_threshold: float = 0.5
    forgetting_factor: float = 1.0
    indirect_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.badness_weight < 0:
            raise ConfigurationError(
                f"badness_weight must be >= 0, got {self.badness_weight}"
            )
        if not 0.0 <= self.detection_threshold <= 1.0:
            raise ConfigurationError(
                f"detection_threshold must lie in [0, 1], got {self.detection_threshold}"
            )
        if not 0.0 <= self.forgetting_factor <= 1.0:
            raise ConfigurationError(
                f"forgetting_factor must lie in [0, 1], got {self.forgetting_factor}"
            )
        if not 0.0 <= self.indirect_weight <= 1.0:
            raise ConfigurationError(
                f"indirect_weight must lie in [0, 1], got {self.indirect_weight}"
            )


class TrustManager:
    """Maintains trust in raters from buffered observations (Procedure 2)."""

    def __init__(self, config: Optional[TrustManagerConfig] = None) -> None:
        self.config = config if config is not None else TrustManagerConfig()
        self.observations = ObservationBuffer()
        self.recommendations = RecommendationBuffer()
        self.maintenance = RecordMaintenance(
            forgetting_factor=self.config.forgetting_factor
        )
        self._records: Dict[int, TrustRecord] = {}
        self._n_updates = 0

    # -- registration and lookup ------------------------------------------

    def register_rater(self, rater_id: int) -> TrustRecord:
        """Ensure a record exists for the rater (idempotent)."""
        if rater_id not in self._records:
            self._records[rater_id] = self.maintenance.new_record(rater_id)
        return self._records[rater_id]

    def register_raters(self, rater_ids: Iterable[int]) -> None:
        for rater_id in rater_ids:
            self.register_rater(rater_id)

    def record(self, rater_id: int) -> TrustRecord:
        try:
            return self._records[rater_id]
        except KeyError:
            raise UnknownRaterError(f"rater {rater_id} has no trust record") from None

    def trust(self, rater_id: int) -> float:
        """Current trust in a rater; unseen raters sit at the 0.5 prior."""
        record = self._records.get(rater_id)
        return record.trust if record is not None else 0.5

    def trust_table(self) -> Dict[int, float]:
        """rater_id -> current trust for every known rater."""
        return {rid: record.trust for rid, record in self._records.items()}

    @property
    def n_updates(self) -> int:
        return self._n_updates

    @property
    def rater_ids(self) -> List[int]:
        return sorted(self._records)

    # -- Procedure 2 --------------------------------------------------------

    def update(self) -> Dict[int, float]:
        """Drain the observation buffer and apply Procedure 2.

        For each rater with buffered observations in the elapsed
        interval:

            F_i += f_i + b * C_i
            S_i += n_i - f_i - s_i

        Raters without observations keep their evidence (discounted by
        the forgetting factor, if any).

        Returns:
            rater_id -> post-update trust for the raters this update
            changed: the drained raters, or every known rater when the
            forgetting factor (< 1) discounted every record.
            :meth:`trust_table` has the rest.
        """
        self.maintenance.apply_forgetting(self._records)
        drained = self.observations.drain()
        for rater_id, obs in drained.items():
            record = self.register_rater(rater_id)
            failure_increment = obs.n_filtered + self.config.badness_weight * obs.suspicion_value
            success_increment = obs.n_provided - obs.n_filtered - obs.n_suspicious
            record.add_evidence(successes=success_increment, failures=failure_increment)
        self._n_updates += 1
        if self.config.forgetting_factor < 1.0:
            return self.trust_table()
        return {rid: self._records[rid].trust for rid in drained}

    # -- indirect trust ------------------------------------------------------

    def build_recommendation_graph(self) -> RecommendationGraph:
        """Construct the recommendation graph from buffered votes.

        The system's recommendation trust in each known rater is the
        rater's current beta trust; buffered rater-on-rater scores form
        the remaining edges.  The buffer is drained.
        """
        graph = RecommendationGraph()
        for rater_id, record in self._records.items():
            graph.set_system_trust(rater_id, record.trust)
        for rec in self.recommendations.drain():
            graph.add_recommendation(rec.source_id, rec.target_id, rec.score)
        return graph

    def blended_trust(self, rater_id: int, graph: RecommendationGraph) -> float:
        """Blend direct and indirect trust per the configured weight."""
        direct = self.trust(rater_id)
        w = self.config.indirect_weight
        if w <= 0.0:
            return direct
        indirect_probability = entropy_trust_inverse(graph.indirect_trust(rater_id))
        return (1.0 - w) * direct + w * indirect_probability

    # -- malicious rater detection -------------------------------------------

    def detected_malicious(self) -> List[int]:
        """Raters whose trust is below the detection threshold."""
        return sorted(
            rid
            for rid, record in self._records.items()
            if record.trust < self.config.detection_threshold
        )
