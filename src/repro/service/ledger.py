"""The serving tier's trust ledger: Procedure 2 applied from flush digests.

An engine flush summarizes its ratings as a **digest**: ``seq`` (the
sender's flush counter) plus per-rater ``provided`` counts, combined
``suspicion`` mass and ``flagged`` counts.  :class:`TrustLedger` is
the one place a digest turns into trust.  The in-process
:class:`~repro.service.engine.RatingEngine` applies its digests to its
own ledger (origin 0); a cluster worker ships them to the
coordinator's (origin = worker index).  One code path for both tiers
is what makes a 1-worker cluster bit-for-bit equal to the in-process
engine.  Rater keys may be ints or, after the JSON framing, strings.

A reply carries only the trusts the origin's read mirror lacks (the
raters its digest changed, plus those other origins' digests changed
since its last reply), so the merged mirror equals the full table.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set, Tuple

from repro.service.config import ServiceConfig
from repro.trust.manager import TrustManager, TrustManagerConfig

__all__ = ["TrustLedger"]


class TrustLedger:
    """The trust manager, per-rater suspicion totals and per-origin
    digest seqs and pending raters of one serving tier, behind one lock."""

    # Lint contract (CC03): the ledger's state and its owning lock.
    _GUARDED_BY = {
        "trust_manager": "_lock",
        "_suspicion_totals": "_lock",
        "_n_updates": "_lock",
        "_seqs": "_lock",
        "_pending": "_lock",
    }

    def __init__(self, config: ServiceConfig) -> None:
        self.trust_manager = TrustManager(
            config=TrustManagerConfig(
                badness_weight=config.trust_badness_weight,
                detection_threshold=config.trust_detection_threshold,
                forgetting_factor=config.trust_forgetting_factor,
            )
        )
        self._lock = threading.Lock()
        self._suspicion_totals: Dict[int, float] = {}
        self._n_updates = 0
        self._seqs: Dict[int, int] = {}  # origin -> last applied seq
        # origin -> raters others changed since its last reply; an
        # origin without an entry is owed the full table.
        self._pending: Dict[int, Set[int]] = {}

    def apply(self, digest: dict, origin: int) -> Tuple[bool, Dict[int, float]]:
        """Apply one digest; returns ``(new, changed trusts)``.

        Records provided counts, then suspicion masses, then flagged
        counts, then runs ``update()``.  The reply maps each rater the
        digest changed, and each rater pending for ``origin``, to its
        current trust.  A seq at or below the origin's last one is a
        redelivery (a flush replayed after a crash): it changes
        nothing and is answered with the pending raters alone.
        """
        seq = int(digest["seq"])
        with self._lock:
            if seq <= self._seqs.get(origin, 0):
                return False, self._reply_locked(origin, {})
            observations = self.trust_manager.observations
            for rid, count in digest["provided"].items():
                observations.record_provided(int(rid), int(count))
            totals = self._suspicion_totals
            for rid, value in digest["suspicion"].items():
                key, mass = int(rid), float(value)
                observations.record_suspicion_value(key, mass)
                totals[key] = totals.get(key, 0.0) + mass
            for rid, count in digest["flagged"].items():
                observations.record_suspicious(int(rid), int(count))
            self._seqs[origin] = seq
            self._n_updates += 1
            changed = self.trust_manager.update()
            for other, pending in self._pending.items():
                if other != origin:
                    pending.update(changed)
            return True, self._reply_locked(origin, changed)

    def _reply_locked(self, origin: int, changed: Dict[int, float]) -> Dict[int, float]:
        """``changed`` plus, emptying it, ``origin``'s pending set."""
        pending = self._pending.get(origin)
        self._pending[origin] = set()
        if pending is None:
            return self.trust_manager.trust_table()
        reply = {rid: self.trust_manager.trust(rid) for rid in pending}
        reply.update(changed)
        return reply

    def welcome(self, origin: int) -> Dict[int, float]:
        """The full trust table for a (re)connecting origin, whose
        mirror it replaces; nothing is pending for the origin after."""
        with self._lock:
            self._pending[origin] = set()
            return self.trust_manager.trust_table()

    def trust(self, rater_id: int) -> float:
        with self._lock:
            return self.trust_manager.trust(rater_id)

    def trust_table(self) -> Dict[int, float]:
        with self._lock:
            return self.trust_manager.trust_table()

    def detected_malicious(self) -> List[int]:
        with self._lock:
            return self.trust_manager.detected_malicious()

    def suspicion_table(self) -> Dict[int, float]:
        with self._lock:
            return dict(self._suspicion_totals)

    def counts(self) -> Tuple[int, int]:
        """``(raters with a record, digests applied)``."""
        with self._lock:
            return len(self.trust_manager.rater_ids), self._n_updates

    def state_dict(self) -> dict:
        """Snapshot keys; int keys stay ints (``json`` writes strings)."""
        with self._lock:
            manager = self.trust_manager
            records = [manager.record(rid) for rid in manager.rater_ids]
            return {
                "trust": {
                    r.rater_id: {"successes": r.successes, "failures": r.failures}
                    for r in records
                },
                "suspicion_totals": dict(self._suspicion_totals),
                "n_trust_updates": self._n_updates,
                "digest_seqs": dict(self._seqs),
            }

    def load_state(self, state: dict) -> None:
        """Install :meth:`state_dict` output, or its JSON round trip,
        into a fresh ledger (engine snapshots written before the
        ledger have no ``digest_seqs``)."""
        with self._lock:
            for rid, saved in state["trust"].items():
                record = self.trust_manager.register_rater(int(rid))
                record.successes = float(saved["successes"])
                record.failures = float(saved["failures"])
            self._suspicion_totals = {
                int(k): float(v) for k, v in state["suspicion_totals"].items()
            }
            self._n_updates = int(state["n_trust_updates"])
            self._seqs = {
                int(k): int(v) for k, v in state.get("digest_seqs", {}).items()
            }
