"""Consistent-hash ring routing products to cluster workers.

The coordinator places ``replicas`` virtual nodes per worker on a
ring keyed by md5 (stable across processes and Python builds, unlike
the salted builtin ``hash``), and each product is owned by the first
virtual node clockwise from its own hash point.  Routing is therefore
a pure function of ``(n_workers, replicas, product_id)``: every
coordinator restart, and every redelivery pass over the ingest WAL,
routes each entry to the same worker.

Changing ``n_workers`` over an existing WAL directory changes the
ownership map and is rejected by the coordinator (the embedded
snapshot config is compared at recovery); consistent hashing still
earns its keep by keeping the map *mostly* stable for the day that
migration support makes resizing legal, and by spreading load evenly
at small worker counts.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

__all__ = ["ConsistentHashRing"]


def _point(key: str) -> int:
    """Stable 64-bit ring position for a string key."""
    return int.from_bytes(hashlib.md5(key.encode("ascii")).digest()[:8], "big")


class ConsistentHashRing:
    """Maps product ids onto worker indexes via consistent hashing.

    Args:
        n_workers: number of workers (ring members), ``>= 1``.
        replicas: virtual nodes per worker; more replicas smooth the
            load split at the cost of a larger (still tiny) ring.
    """

    def __init__(self, n_workers: int, replicas: int = 64) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.n_workers = int(n_workers)
        self.replicas = int(replicas)
        points: List[Tuple[int, int]] = []
        for worker in range(self.n_workers):
            for replica in range(self.replicas):
                points.append((_point(f"worker-{worker}:{replica}"), worker))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [w for _, w in points]

    def owner(self, product_id: int) -> int:
        """Worker index owning a product (first vnode clockwise)."""
        position = _point(f"product:{product_id}")
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[index]

    def spread(self, product_ids) -> Dict[int, int]:
        """Worker index -> owned-product count over an id collection."""
        counts = {worker: 0 for worker in range(self.n_workers)}
        for product_id in product_ids:
            counts[self.owner(product_id)] += 1
        return counts
