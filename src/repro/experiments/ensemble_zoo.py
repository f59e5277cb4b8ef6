"""Extension experiment: attack zoo vs the online detector ensemble.

Replays four synthetic attack families through the serving engine
twice -- once with the classic AR-only configuration and once with the
full three-source ensemble (AR + co-rating graph + iterative
filtering) -- and grades each run by per-rater ROC/AUC against ground
truth.  The per-rater statistic is the engine's accumulated suspicion
mass (:meth:`~repro.service.engine.RatingEngine.suspicion_table`)
normalized by how many ratings the rater submitted, so prolific honest
raters are not penalized for volume.

The zoo covers the signal-model blind spot on purpose:

* ``collusion`` -- a ring co-rates the same products with tightly
  agreeing inflated values.  Each individual stream stays smooth, so
  the AR charge lands window-wide (honest co-raters included); the
  co-rating graph sees the agreeing clique directly.
* ``sybil_ramp`` -- fresh identities join in waves and pile agreeing
  ratings onto target products.  Sybils are too young for a stable
  per-rater AR profile, but the swarm's mutual agreement and their
  deviation from honest consensus are loud.
* ``bias`` -- unfair raters inject runs of shifted low-variance
  ratings (the paper's Section IV scenario); the AR path should keep
  carrying this.
* ``burst`` -- a rater floods one product with near-identical
  promotion ratings, the canonical AR model-error *drop* (injected
  ratings are artificially smooth, so the alarm fires when the
  normalized model error falls *below* the threshold).

The AR threshold is calibrated to the zoo's honest noise: the honest
windows' normalized model error sits around 0.005-0.09, so the zoo
uses an AR threshold of 0.008 (~1 percent honest flag rate)
instead of the serving default.

The headline numbers are the per-family AUC deltas: the ensemble must
beat AR-only on ``collusion`` and ``sybil_ramp`` without giving back
the AR families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.evaluation.roc import roc_from_scores
from repro.ratings.models import Rating
from repro.service import RatingEngine, ServiceConfig

__all__ = ["AttackFamilyResult", "EnsembleZooResult", "run", "format_report"]

ATTACK_FAMILIES = ("collusion", "sybil_ramp", "bias", "burst")

#: Honest world shared by every family.
N_PRODUCTS = 8
N_HONEST = 24
ROUNDS = 10
HONEST_NOISE = 0.08


@dataclass(frozen=True)
class AttackFamilyResult:
    """ROC/AUC of both configurations on one attack family.

    Attributes:
        family: attack family name.
        n_attackers: ground-truth malicious raters in the stream.
        n_ratings: total stream length.
        auc_ar: AUC of the AR-only engine.
        auc_ensemble: AUC of the three-source ensemble engine.
        delta: ``auc_ensemble - auc_ar``.
    """

    family: str
    n_attackers: int
    n_ratings: int
    auc_ar: float
    auc_ensemble: float
    delta: float


@dataclass(frozen=True)
class EnsembleZooResult:
    """Per-family AUC comparison plus the acceptance verdict.

    Attributes:
        families: one entry per attack family, zoo order.
        ensemble_wins_collusion: ensemble AUC beat AR-only on the
            collusion ring.
        ensemble_wins_sybil_ramp: ensemble AUC beat AR-only on the
            Sybil ramp.
    """

    families: Tuple[AttackFamilyResult, ...]
    ensemble_wins_collusion: bool
    ensemble_wins_sybil_ramp: bool


# -- stream synthesis -------------------------------------------------------


def _honest_world(rng: np.random.Generator) -> Tuple[List[Tuple[int, int, float]], np.ndarray]:
    """(rater, product, value) honest triples, round-robin over rounds."""
    quality = rng.uniform(0.4, 0.7, size=N_PRODUCTS)
    triples = []
    for _ in range(ROUNDS):
        for pid in range(N_PRODUCTS):
            for rid in range(N_HONEST):
                value = float(
                    np.clip(quality[pid] + rng.normal(0.0, HONEST_NOISE), 0, 1)
                )
                triples.append((rid, pid, round(value, 3)))
    return triples, quality


def _collusion_stream(rng: np.random.Generator):
    """A 6-rater ring repeatedly co-rates 4 target products at ~0.92."""
    triples, _ = _honest_world(rng)
    ring = tuple(range(100, 106))
    per_round = len(triples) // ROUNDS
    out = []
    for round_index in range(ROUNDS):
        out.extend(triples[round_index * per_round : (round_index + 1) * per_round])
        for pid in range(4):
            for rid in ring:
                value = float(np.clip(0.92 + rng.normal(0.0, 0.01), 0, 1))
                out.append((rid, pid, round(value, 3)))
    return out, frozenset(ring)


def _sybil_ramp_stream(rng: np.random.Generator):
    """Waves of fresh identities pile agreeing ratings on 3 targets.

    The injections are shuffled into the round's organic traffic, so
    each product's stream never carries a window-length run of smooth
    sybil values -- the per-window AR statistic stays honest-looking
    while the swarm's mutual agreement accumulates in the graph.
    """
    triples, _ = _honest_world(rng)
    per_round = len(triples) // ROUNDS
    sybils: List[int] = []
    out = []
    for round_index in range(ROUNDS):
        merged = list(
            triples[round_index * per_round : (round_index + 1) * per_round]
        )
        if round_index >= 2:  # the ramp: 3 new identities per round
            sybils.extend(range(200 + 3 * round_index, 203 + 3 * round_index))
        for rid in sybils:
            for pid in range(3):
                value = float(np.clip(0.95 + rng.normal(0.0, 0.01), 0, 1))
                merged.append((rid, pid, round(value, 3)))
        out.extend(merged[i] for i in rng.permutation(len(merged)))
    return out, frozenset(sybils)


def _bias_stream(rng: np.random.Generator):
    """4 unfair raters inject consecutive runs of shifted smooth values.

    Each round every unfair rater drops 3 back-to-back ratings per
    product at ``quality + 0.3`` with tiny variance, so the 12-sample
    detector window fills with artificially smooth injected values --
    the classic model-error-drop signature AR-only must catch.
    """
    triples, quality = _honest_world(rng)
    unfair = tuple(range(300, 304))
    per_round = len(triples) // ROUNDS
    out = []
    for round_index in range(ROUNDS):
        out.extend(triples[round_index * per_round : (round_index + 1) * per_round])
        for pid in range(N_PRODUCTS):
            for rid in unfair:
                for _ in range(3):
                    value = float(
                        np.clip(quality[pid] + 0.3 + rng.normal(0.0, 0.02), 0, 1)
                    )
                    out.append((rid, pid, round(value, 3)))
    return out, frozenset(unfair)


def _burst_stream(rng: np.random.Generator):
    """3 raters each flood one product with 15 near-identical ratings."""
    triples, _ = _honest_world(rng)
    attackers = tuple(range(400, 403))
    per_round = len(triples) // ROUNDS
    out = []
    for round_index in range(ROUNDS):
        out.extend(triples[round_index * per_round : (round_index + 1) * per_round])
        if round_index == 5:
            for attacker_index, rid in enumerate(attackers):
                for _ in range(15):
                    value = float(np.clip(0.95 + rng.normal(0.0, 0.005), 0, 1))
                    out.append((rid, attacker_index, round(value, 3)))
    return out, frozenset(attackers)


_SYNTHESIZERS = {
    "collusion": _collusion_stream,
    "sybil_ramp": _sybil_ramp_stream,
    "bias": _bias_stream,
    "burst": _burst_stream,
}


def _to_ratings(triples: List[Tuple[int, int, float]]) -> List[Rating]:
    return [
        Rating(rating_id=i, rater_id=rid, product_id=pid, value=value, time=float(i))
        for i, (rid, pid, value) in enumerate(triples)
    ]


# -- replay and grading -----------------------------------------------------


def _engine_config(sources: Tuple[str, ...]) -> ServiceConfig:
    """Deterministic count-flushed engine for grading."""
    return ServiceConfig(
        batch_max_ratings=64,
        detector_window=12,
        detector_order=2,
        detector_stride=3,
        ensemble_sources=sources,
        ensemble_thresholds=tuple(
            0.008 if name == "ar" else None for name in sources
        ),
    )


def _replay_auc(
    ratings: List[Rating], attackers: FrozenSet[int], sources: Tuple[str, ...]
) -> float:
    engine = RatingEngine(_engine_config(sources))
    engine.submit_many(ratings)
    engine.flush()
    mass = engine.suspicion_table()
    counts: Dict[int, int] = {}
    for rating in ratings:
        counts[rating.rater_id] = counts.get(rating.rater_id, 0) + 1
    engine.close()

    def statistic(rid: int) -> float:
        return mass.get(rid, 0.0) / counts[rid]

    attack_scores = [statistic(rid) for rid in sorted(attackers)]
    honest_scores = [
        statistic(rid) for rid in sorted(counts) if rid not in attackers
    ]
    return roc_from_scores(
        attack_scores, honest_scores, smaller_is_suspicious=False
    ).auc()


def run(seed: int = 0) -> EnsembleZooResult:
    """Replay every attack family through both engine configurations.

    Args:
        seed: master seed; each family derives its own child stream.
    """
    families = []
    for index, family in enumerate(ATTACK_FAMILIES):
        rng = np.random.default_rng(seed * 1000 + index)
        triples, attackers = _SYNTHESIZERS[family](rng)
        ratings = _to_ratings(triples)
        auc_ar = _replay_auc(ratings, attackers, ("ar",))
        auc_ensemble = _replay_auc(
            ratings, attackers, ("ar", "cograph", "iterfilter")
        )
        families.append(
            AttackFamilyResult(
                family=family,
                n_attackers=len(attackers),
                n_ratings=len(ratings),
                auc_ar=round(auc_ar, 4),
                auc_ensemble=round(auc_ensemble, 4),
                delta=round(auc_ensemble - auc_ar, 4),
            )
        )
    by_name = {entry.family: entry for entry in families}
    return EnsembleZooResult(
        families=tuple(families),
        ensemble_wins_collusion=by_name["collusion"].delta > 0,
        ensemble_wins_sybil_ramp=by_name["sybil_ramp"].delta > 0,
    )


def format_report(result: EnsembleZooResult) -> str:
    """Per-family AUC table with the acceptance verdict."""
    lines = [
        "Attack zoo: AR-only vs three-source detector ensemble (per-rater AUC)",
        f"  {'family':<12} {'attackers':>9} {'ratings':>8} "
        f"{'AR AUC':>8} {'ensemble':>9} {'delta':>8}",
    ]
    for entry in result.families:
        lines.append(
            f"  {entry.family:<12} {entry.n_attackers:>9} {entry.n_ratings:>8} "
            f"{entry.auc_ar:>8.4f} {entry.auc_ensemble:>9.4f} "
            f"{entry.delta:>+8.4f}"
        )
    verdict = (
        "PASS"
        if result.ensemble_wins_collusion and result.ensemble_wins_sybil_ramp
        else "FAIL"
    )
    lines.append(
        f"  acceptance ({verdict}): ensemble beats AR-only on collusion "
        f"({result.ensemble_wins_collusion}) and sybil_ramp "
        f"({result.ensemble_wins_sybil_ramp})"
    )
    return "\n".join(lines)
