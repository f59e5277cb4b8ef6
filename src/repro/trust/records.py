"""Per-rater trust records and record maintenance.

A :class:`TrustRecord` accumulates beta-function evidence: ``S``
successful (fair) observations and ``F`` failed (unfair) observations,
with trust ``(S + 1) / (S + F + 2)``.  The Record Maintenance module of
Fig. 1 is realized by :class:`RecordMaintenance`: initialization of new
raters at the neutral prior and an exponential forgetting scheme so
that observations collected long ago weigh less than recent ones (an
honest rater may become compromised, and vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError

__all__ = ["beta_trust", "TrustRecord", "RecordMaintenance"]


def beta_trust(successes: float, failures: float) -> float:
    """Beta-function trust value ``(S + 1) / (S + F + 2)``.

    The +1/+2 terms are the uniform Beta(1, 1) prior: a rater with no
    history sits at the neutral trust 0.5.
    """
    if successes < 0 or failures < 0:
        raise ConfigurationError(
            f"evidence counts must be >= 0, got S={successes}, F={failures}"
        )
    return (successes + 1.0) / (successes + failures + 2.0)


@dataclass
class TrustRecord:
    """Beta-function evidence for one rater.

    Attributes:
        rater_id: the rater this record tracks.
        successes: accumulated fair-behaviour evidence ``S``.
        failures: accumulated unfair-behaviour evidence ``F``.
    """

    rater_id: int
    successes: float = 0.0
    failures: float = 0.0

    @property
    def trust(self) -> float:
        """Current beta trust value."""
        return beta_trust(self.successes, self.failures)

    def add_evidence(self, successes: float, failures: float) -> None:
        """Accumulate new evidence (clipped at zero from below).

        Procedure 2 computes the success increment as ``n - f - s``,
        which is guaranteed non-negative when the inputs are consistent;
        clipping protects the record against inconsistent observations.
        """
        self.successes = max(0.0, self.successes + successes)
        self.failures = max(0.0, self.failures + failures)

    def forget(self, factor: float) -> None:
        """Exponentially discount old evidence by ``factor`` in [0, 1]."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError(f"forgetting factor must lie in [0, 1], got {factor}")
        self.successes *= factor
        self.failures *= factor


class RecordMaintenance:
    """Initialization and forgetting policy for a table of trust records.

    Args:
        forgetting_factor: multiplier applied to all evidence at each
            maintenance step; 1.0 disables forgetting (the Section IV
            simulations run without it), smaller values make the system
            react faster to behaviour changes.
        initial_successes: prior evidence given to a brand-new rater
            (0 keeps the neutral 0.5 start used in the paper).
        initial_failures: see ``initial_successes``.
    """

    def __init__(
        self,
        forgetting_factor: float = 1.0,
        initial_successes: float = 0.0,
        initial_failures: float = 0.0,
    ) -> None:
        if not 0.0 <= forgetting_factor <= 1.0:
            raise ConfigurationError(
                f"forgetting factor must lie in [0, 1], got {forgetting_factor}"
            )
        if initial_successes < 0 or initial_failures < 0:
            raise ConfigurationError("initial evidence must be >= 0")
        self.forgetting_factor = float(forgetting_factor)
        self.initial_successes = float(initial_successes)
        self.initial_failures = float(initial_failures)

    def new_record(self, rater_id: int) -> TrustRecord:
        """Create an initialized record for a newly seen rater."""
        return TrustRecord(
            rater_id=rater_id,
            successes=self.initial_successes,
            failures=self.initial_failures,
        )

    def apply_forgetting(self, records: Dict[int, TrustRecord]) -> None:
        """Discount every record's evidence by the forgetting factor."""
        if self.forgetting_factor >= 1.0:
            return
        for record in records.values():
            record.forget(self.forgetting_factor)
