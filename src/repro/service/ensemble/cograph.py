"""Incremental rater-rater co-rating graph collusion source.

Collusion rings (Allahbakhsh et al., PAPERS.md) are invisible to the
per-product AR signal model: each colluder's ratings can look smooth,
but the *set* of colluders keeps rating the same products with the
same values.  This source maintains a bounded rater-rater graph at
ingest -- an edge per pair that rated a common product, weighted by
co-rating count and rating agreement -- and periodically scores its
connected components: a dense component whose edges mostly agree is a
candidate ring, and its members are charged suspicion proportional to
the component's density times its mean agreement.

Everything is bounded so the hot path stays O(1)-ish:

* per-product rater memory is an LRU dict capped at
  ``max_raters_per_product`` (evictions feed the ensemble eviction
  metric);
* each arrival co-rates against at most ``co_fanout`` of the product's
  most recent raters;
* the edge set is capped at ``max_edges``; the weakest edges are
  dropped at scoring time;
* component scoring runs only every ``score_every`` flushes.

Neither scoring nor trimming scans the edge set; ``observe`` keeps two
indexes up to date instead:

* the *qualifying index* holds exactly the edges scoring reads (enough
  co-ratings, agreeing enough).  Only an edge's own update can change
  its membership, so ``observe`` re-checks the one edge it touches and
  eviction removes it.  Scoring reads the index in edge birth order,
  which is the order of the edge dict itself, so it sees the edges in
  the same order a filtered scan would;
* the *bucket queue* maps a co-count to a heap of edges.  A new edge
  goes into bucket 1; an increment moves nothing, so an entry sits in
  a bucket at or below its edge's live co-count.  Trimming pops the
  lowest non-empty bucket: an edge whose live count equals the bucket
  is the weakest live edge (lower buckets are empty, and every edge of
  that count is in this bucket or a lower one) and is evicted; any
  other is re-pushed into its live bucket.  That evicts exactly the
  first ``overflow`` edges in ``(co_count, edge)`` order, and each
  re-push is paid for by an earlier increment.

Plain dicts and union-find only -- the serving tier takes no graph
library dependency.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.ratings.models import Rating
from repro.service.ensemble.base import OnlineSuspicionSource, unit_suspicion

__all__ = ["CoRatingGraphSource"]

Edge = Tuple[int, int]


class CoRatingGraphSource(OnlineSuspicionSource):
    """Bounded incremental co-rating graph with component scoring.

    Args:
        threshold: minimum component score (density x mean agreement,
            in ``[0, 1]``) for its members to be charged.
        score_every: run component scoring every N-th flush.
        agreement_eps: two co-ratings of a product *agree* when their
            values differ by at most this much.
        min_edge_weight: edges with fewer co-ratings are ignored by
            scoring (one shared product is not evidence).
        min_agreement: edges whose agreeing fraction is below this are
            ignored by scoring -- it is what separates a colluding
            clique from honest raters who merely share products: the
            honest-to-colluder edges disagree and drop out, so the
            ring forms its own component.
        min_component_size: smaller components are never charged
            (a single agreeing pair is not a ring).
        max_raters_per_product: LRU cap on each product's remembered
            raters.
        co_fanout: max recent co-raters each arrival links against.
        max_edges: cap on the global edge set; the weakest edges are
            evicted at scoring time.
    """

    name = "cograph"

    def __init__(
        self,
        threshold: float = 0.5,
        score_every: int = 1,
        agreement_eps: float = 0.1,
        min_edge_weight: int = 2,
        min_agreement: float = 0.75,
        min_component_size: int = 3,
        max_raters_per_product: int = 1024,
        co_fanout: int = 16,
        max_edges: int = 50_000,
    ) -> None:
        super().__init__(threshold=threshold, score_every=score_every)
        if agreement_eps < 0:
            raise ConfigurationError(
                f"agreement_eps must be >= 0, got {agreement_eps}"
            )
        if min_edge_weight < 1:
            raise ConfigurationError(
                f"min_edge_weight must be >= 1, got {min_edge_weight}"
            )
        if not 0.0 <= min_agreement <= 1.0:
            raise ConfigurationError(
                f"min_agreement must lie in [0, 1], got {min_agreement}"
            )
        if min_component_size < 2:
            raise ConfigurationError(
                f"min_component_size must be >= 2, got {min_component_size}"
            )
        if max_raters_per_product < 1:
            raise ConfigurationError(
                f"max_raters_per_product must be >= 1, got {max_raters_per_product}"
            )
        if co_fanout < 1:
            raise ConfigurationError(f"co_fanout must be >= 1, got {co_fanout}")
        if max_edges < 1:
            raise ConfigurationError(f"max_edges must be >= 1, got {max_edges}")
        self.agreement_eps = float(agreement_eps)
        self.min_edge_weight = int(min_edge_weight)
        self.min_agreement = float(min_agreement)
        self.min_component_size = int(min_component_size)
        self.max_raters_per_product = int(max_raters_per_product)
        self.co_fanout = int(co_fanout)
        self.max_edges = int(max_edges)
        # product -> LRU of rater -> last rating value (most recent last).
        self._products: Dict[int, "OrderedDict[int, float]"] = {}
        # (low_rater, high_rater) -> [co_count, agree_count, birth];
        # birth numbers edges in creation order, which is dict order.
        self._edges: Dict[Edge, List[int]] = {}
        self._births = 0
        # The edges scoring reads, sharing the weights lists of _edges.
        self._qualifying: Dict[Edge, List[int]] = {}
        # co_count -> heap of edge keys, one entry per live edge, each in
        # a bucket at or below the edge's live co-count.
        self._by_count: Dict[int, List[Edge]] = {}
        # rater -> ratings seen since the last scoring pass.
        self._counts: Dict[int, int] = {}
        self._since_score = 0

    # -- protocol ----------------------------------------------------------

    def observe(self, rating: Rating) -> None:
        rid, value = rating.rater_id, rating.value
        raters = self._products.get(rating.product_id)
        if raters is None:
            raters = OrderedDict()
            self._products[rating.product_id] = raters
        if rid in raters:
            del raters[rid]  # re-insert at the recent end below
        else:
            # Link against the product's most recent raters (bounded
            # fanout keeps the hot path constant-time).
            edges, qualifying = self._edges, self._qualifying
            min_weight, min_agreement = self.min_edge_weight, self.min_agreement
            linked = 0
            for other, other_value in reversed(raters.items()):
                edge = (rid, other) if rid < other else (other, rid)
                weights = edges.get(edge)
                if weights is None:
                    weights = [0, 0, self._births]
                    self._births += 1
                    edges[edge] = weights
                    heappush(self._by_count.setdefault(1, []), edge)
                weights[0] += 1
                if abs(value - other_value) <= self.agreement_eps:
                    weights[1] += 1
                if weights[0] >= min_weight:
                    if weights[1] / weights[0] >= min_agreement:
                        qualifying[edge] = weights
                    else:
                        qualifying.pop(edge, None)
                linked += 1
                if linked >= self.co_fanout:
                    break
        raters[rid] = value
        if len(raters) > self.max_raters_per_product:
            raters.popitem(last=False)
            self._record_evictions(1)
        self._counts[rid] = self._counts.get(rid, 0) + 1

    def flush(self) -> Dict[int, float]:
        self._since_score += 1
        if self._since_score < self.score_every:
            return {}
        self._since_score = 0
        mass = self._score_components()
        self._counts = {}
        self._trim_edges()
        return mass

    # -- scoring -----------------------------------------------------------

    def _score_components(self) -> Dict[int, float]:
        """Charge members of dense, agreeing components.

        Component score = edge density (``2|E| / n(n-1)``) times the
        mean per-edge agreement ratio -- both in ``[0, 1]``, so the
        product is a valid per-rating suspicion level.  A member's
        mass is the level times the ratings they contributed since the
        last scoring pass, mirroring the AR source's
        level-per-charged-rating accounting.
        """
        if not self._qualifying:
            return {}
        qualifying = sorted(self._qualifying.items(), key=lambda item: item[1][2])
        parent: Dict[int, int] = {}

        def find(node: int) -> int:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        for (a, b), _ in qualifying:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        members: Dict[int, List[int]] = {}
        for node in parent:
            members.setdefault(find(node), []).append(node)
        edges_of: Dict[int, List[List[int]]] = {}
        for (a, b), weights in qualifying:
            edges_of.setdefault(find(a), []).append(weights)

        mass: Dict[int, float] = {}
        for root, nodes in members.items():
            n = len(nodes)
            if n < self.min_component_size:
                continue
            component_edges = edges_of.get(root, [])
            density = 2.0 * len(component_edges) / (n * (n - 1))
            agreement = sum(w[1] / w[0] for w in component_edges) / len(
                component_edges
            )
            score = min(1.0, density) * agreement
            if score < self.threshold:
                continue
            level = unit_suspicion(score)
            for rater_id in nodes:
                charged = self._counts.get(rater_id, 0)
                if charged:
                    mass[rater_id] = mass.get(rater_id, 0.0) + level * charged
        return mass

    def _trim_edges(self) -> None:
        """Evict the weakest edges once over the cap (deterministic).

        Evicts exactly the first ``overflow`` edges in ``(co_count,
        edge)`` order, popping the bucket queue from its lowest bucket
        (see the module docstring).
        """
        overflow = len(self._edges) - self.max_edges
        if overflow <= 0:
            return
        edges, buckets = self._edges, self._by_count
        remaining = overflow
        while remaining:
            co_count = min(buckets)
            bucket = buckets[co_count]
            while bucket and remaining:
                edge = heappop(bucket)
                weights = edges[edge]
                if weights[0] == co_count:
                    del edges[edge]
                    self._qualifying.pop(edge, None)
                    remaining -= 1
                else:
                    heappush(buckets.setdefault(weights[0], []), edge)
            if not bucket:
                del buckets[co_count]
        self._record_evictions(overflow)

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "products": {
                str(pid): [[r, v] for r, v in raters.items()]
                for pid, raters in self._products.items()
            },
            "edges": [
                [a, b, w[0], w[1]] for (a, b), w in self._edges.items()
            ],
            "counts": {str(k): v for k, v in self._counts.items()},
            "since_score": self._since_score,
            "n_evictions": self.n_evictions,
        }

    def load_state(self, state: dict) -> None:
        self._products = {}
        for pid_str, rows in state["products"].items():
            raters: "OrderedDict[int, float]" = OrderedDict()
            for rid, value in rows:
                raters[int(rid)] = float(value)
            self._products[int(pid_str)] = raters
        self._edges = {}
        self._qualifying = {}
        self._by_count = {}
        for birth, (a, b, co, agree) in enumerate(state["edges"]):
            edge = (int(a), int(b))
            weights = [int(co), int(agree), birth]
            self._edges[edge] = weights
            self._by_count.setdefault(weights[0], []).append(edge)
            if (
                weights[0] >= self.min_edge_weight
                and weights[1] / weights[0] >= self.min_agreement
            ):
                self._qualifying[edge] = weights
        for bucket in self._by_count.values():
            heapify(bucket)
        self._births = len(self._edges)
        self._counts = {int(k): int(v) for k, v in state["counts"].items()}
        self._since_score = int(state["since_score"])
        self.n_evictions = int(state.get("n_evictions", 0))
