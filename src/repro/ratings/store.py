"""Rating database facade over pluggable storage backends.

The authors back their simulator with MySQL; :class:`RatingStore` is
the pure-Python substitute.  It keeps the bounded registries (product
records, rater profiles) itself and delegates the unbounded part --
the rating rows -- to a :class:`~repro.ratings.backend.RatingStoreBackend`:

* :class:`~repro.ratings.backend.InMemoryBackend` (the default)
  keeps everything in Python lists, exactly the historical behavior;
* :class:`~repro.ratings.tiered.TieredRatingBackend` holds full
  history in sqlite on disk, so resident memory stays flat while
  histories grow.

Either way the store indexes ratings by product and by rater and
hands out :class:`~repro.ratings.stream.RatingStream` views for
analysis.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from repro.errors import UnknownProductError, UnknownRaterError
from repro.ratings.backend import InMemoryBackend, RatingStoreBackend
from repro.ratings.models import Product, RaterProfile, Rating
from repro.ratings.stream import RatingStream

__all__ = ["RatingStore"]


class RatingStore:
    """Mutable container for products, raters, and their ratings.

    Args:
        backend: rating-row storage engine; ``None`` builds a fresh
            :class:`~repro.ratings.backend.InMemoryBackend`.
    """

    def __init__(self, backend: Optional[RatingStoreBackend] = None) -> None:
        self._products: Dict[int, Product] = {}
        self._raters: Dict[int, RaterProfile] = {}
        self._backend: RatingStoreBackend = (
            backend if backend is not None else InMemoryBackend()
        )

    @property
    def backend(self) -> RatingStoreBackend:
        """The storage engine holding this store's rating rows."""
        return self._backend

    # -- registration -----------------------------------------------------

    def add_product(self, product: Product) -> None:
        """Register a product; re-registering the same id overwrites."""
        self._products[product.product_id] = product

    def add_rater(self, profile: RaterProfile) -> None:
        """Register a rater profile; re-registering overwrites."""
        self._raters[profile.rater_id] = profile

    def add_rating(self, rating: Rating, seq: Optional[int] = None) -> None:
        """Record a rating.  Product and rater must be registered.

        ``seq`` is the rating's global log position when the caller
        tracks one (the serving engine passes its WAL sequence number
        so a durable backend can align with the log); standalone users
        omit it.
        """
        if rating.product_id not in self._products:
            raise UnknownProductError(
                f"product {rating.product_id} is not registered"
            )
        if rating.rater_id not in self._raters:
            raise UnknownRaterError(f"rater {rating.rater_id} is not registered")
        self._backend.add(rating, seq=seq)

    def add_ratings(self, ratings: Iterable[Rating]) -> None:
        for rating in ratings:
            self.add_rating(rating)

    # -- container protocol / recycling -----------------------------------

    def __len__(self) -> int:
        """Total number of ratings recorded."""
        return self._backend.n_ratings

    def __contains__(self, product_id: object) -> bool:
        """``product_id in store`` -- membership over *product* ids.

        Products are the store's primary routing key (streams, shard
        hashing); use :meth:`has_rater` for rater membership.
        """
        return product_id in self._products

    def has_product(self, product_id: int) -> bool:
        """True when the product id is registered."""
        return product_id in self._products

    def has_rater(self, rater_id: int) -> bool:
        """True when the rater id is registered."""
        return rater_id in self._raters

    def clear(self) -> None:
        """Drop every rating but keep registered products and raters.

        Long-running services recycle a store between epochs without
        re-registering the catalog; the product/rater indexes survive,
        only the rating rows are emptied.
        """
        self._backend.clear()

    def commit(self) -> None:
        """Flush the backend's buffered rows to durable storage.

        A no-op for the in-memory backend; the serving engine calls
        this inside its snapshot gate so the cold tier is durable
        before WAL segments behind the snapshot are garbage-collected.
        """
        self._backend.commit()

    def close(self) -> None:
        """Commit and release backend resources (no-op for memory)."""
        self._backend.close()

    # -- lookups ----------------------------------------------------------

    @property
    def n_ratings(self) -> int:
        return self._backend.n_ratings

    @property
    def product_ids(self) -> List[int]:
        return sorted(self._products)

    @property
    def rater_ids(self) -> List[int]:
        return sorted(self._raters)

    def product(self, product_id: int) -> Product:
        try:
            return self._products[product_id]
        except KeyError:
            raise UnknownProductError(f"product {product_id} is not registered") from None

    def rater(self, rater_id: int) -> RaterProfile:
        try:
            return self._raters[rater_id]
        except KeyError:
            raise UnknownRaterError(f"rater {rater_id} is not registered") from None

    def has_rated(self, rater_id: int, product_id: int) -> bool:
        """True when the rater already rated the product (one-per-product rule)."""
        return self._backend.has_rated(rater_id, product_id)

    def stream(self, product_id: int) -> RatingStream:
        """Time-sorted stream of one product's ratings."""
        if product_id not in self._products:
            raise UnknownProductError(f"product {product_id} is not registered")
        return RatingStream.from_ratings(self._backend.product_ratings(product_id))

    def rater_stream(self, rater_id: int) -> RatingStream:
        """Time-sorted stream of one rater's ratings across products."""
        if rater_id not in self._raters:
            raise UnknownRaterError(f"rater {rater_id} is not registered")
        return RatingStream.from_ratings(self._backend.rater_ratings(rater_id))

    def all_ratings(self) -> RatingStream:
        """Every rating in the store, time-sorted."""
        return RatingStream.from_ratings(self._backend.all_ratings())

    def raters_by_class(self) -> Dict[object, List[int]]:
        """Map rater class -> sorted rater ids (evaluation convenience)."""
        grouped: Dict[object, List[int]] = defaultdict(list)
        for rater_id in sorted(self._raters):
            grouped[self._raters[rater_id].rater_class].append(rater_id)
        return dict(grouped)
