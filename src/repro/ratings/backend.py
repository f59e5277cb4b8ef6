"""Pluggable rating-storage backends.

:class:`~repro.ratings.store.RatingStore` is the library's MySQL
substitute; this module extracts the part of it that actually holds
rating rows into a :class:`RatingStoreBackend` interface so the
serving tier can swap the all-in-RAM default for the tiered
sqlite implementation (:mod:`repro.ratings.tiered`) without any
caller noticing.

The split is deliberate: product and rater *registries* stay in
:class:`~repro.ratings.store.RatingStore` (one small record per id),
while the backend owns the unbounded part -- the rating rows
themselves -- plus everything whose cost scales with history length
(per-product streams, per-rater streams, membership tests).

Backends index rows by an optional *sequence number*.  The serving
engine passes each accepted rating's write-ahead-log position, which
lets a durable backend line its contents up against a WAL suffix at
recovery time; standalone users may omit it and the backend assigns a
monotone counter itself.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.ratings.models import Rating

__all__ = ["RatingStoreBackend", "InMemoryBackend"]


class RatingStoreBackend(abc.ABC):
    """Storage engine behind a :class:`~repro.ratings.store.RatingStore`.

    Implementations must preserve **insertion order per product and
    per rater** (the order :meth:`add` was called in), because the
    deterministic replay guarantees of the serving tier are defined
    over arrival order.  All methods are called with the owning
    store's external synchronization (the engine's shard lock);
    implementations that share OS resources across threads must add
    their own internal locking on top.
    """

    #: short label used in stats payloads and metrics ("memory", "tiered").
    name: str = "abstract"

    @abc.abstractmethod
    def add(self, rating: Rating, seq: Optional[int] = None) -> None:
        """Store one rating.

        Args:
            rating: the validated rating row.
            seq: its global log position (non-negative, strictly
                increasing across calls when provided); ``None`` lets
                the backend assign its own monotone counter.
        """

    @property
    @abc.abstractmethod
    def n_ratings(self) -> int:
        """Total ratings stored."""

    @abc.abstractmethod
    def product_ratings(self, product_id: int) -> Sequence[Rating]:
        """One product's ratings in insertion order (empty if none)."""

    @abc.abstractmethod
    def rater_ratings(self, rater_id: int) -> Sequence[Rating]:
        """One rater's ratings in insertion order (empty if none)."""

    @abc.abstractmethod
    def all_ratings(self) -> Sequence[Rating]:
        """Every stored rating in insertion order."""

    @abc.abstractmethod
    def has_rated(self, rater_id: int, product_id: int) -> bool:
        """True when a rating by ``rater_id`` on ``product_id`` exists."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every rating (products/raters are the store's concern)."""

    def commit(self) -> None:
        """Flush any buffered rows to durable storage (no-op default)."""

    def close(self) -> None:
        """Release backing resources (no-op default)."""

    def stats(self) -> dict:
        """Storage telemetry: durable and buffered row counts, backing path."""
        return {
            "backend": self.name,
            "cold_ratings": 0,
            "pending_ratings": 0,
        }


class InMemoryBackend(RatingStoreBackend):
    """The historical all-in-RAM backend: plain per-key lists.

    Every rating lives in two Python lists (by product and by rater),
    so reads are O(1) list handoffs but resident memory grows linearly
    with history.  This remains the default -- simulations and tests
    want the speed and never grow histories that matter.
    """

    name = "memory"

    def __init__(self) -> None:
        self._by_product: Dict[int, List[Rating]] = defaultdict(list)
        self._by_rater: Dict[int, List[Rating]] = defaultdict(list)
        self._n_ratings = 0

    def add(self, rating: Rating, seq: Optional[int] = None) -> None:
        """Append to both indexes; ``seq`` is accepted and ignored."""
        self._by_product[rating.product_id].append(rating)
        self._by_rater[rating.rater_id].append(rating)
        self._n_ratings += 1

    @property
    def n_ratings(self) -> int:
        return self._n_ratings

    def product_ratings(self, product_id: int) -> Sequence[Rating]:
        return self._by_product.get(product_id, [])

    def rater_ratings(self, rater_id: int) -> Sequence[Rating]:
        return self._by_rater.get(rater_id, [])

    def all_ratings(self) -> Sequence[Rating]:
        everything: List[Rating] = []
        for ratings in self._by_product.values():
            everything.extend(ratings)
        return everything

    def has_rated(self, rater_id: int, product_id: int) -> bool:
        return any(
            r.product_id == product_id for r in self._by_rater.get(rater_id, ())
        )

    def clear(self) -> None:
        self._by_product.clear()
        self._by_rater.clear()
        self._n_ratings = 0
