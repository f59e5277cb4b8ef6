"""Indirect trust via propagation over a recommendation graph.

When raters vote on each other's usefulness (the Recommendation Buffer
of Fig. 1), the system can establish *indirect* trust in raters it has
little direct evidence about.  The graph's nodes are raters plus the
distinguished ``SYSTEM`` node; edge weights are recommendation scores
mapped to entropy-trust values.  Indirect trust in a target fuses all
short paths from the system with the framework's concatenation and
multipath rules.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.trust.entropy_trust import concatenate, entropy_trust, multipath

__all__ = ["SYSTEM_NODE", "RecommendationGraph"]

#: Node id of the trust-establishing system itself.
SYSTEM_NODE = -1


class RecommendationGraph:
    """Directed recommendation graph with trust propagation.

    Args:
        max_path_length: longest recommendation chain considered
            (default 3 hops; long chains carry vanishing information
            because concatenated trust shrinks multiplicatively).
    """

    def __init__(self, max_path_length: int = 3) -> None:
        if max_path_length < 1:
            raise ConfigurationError(
                f"max_path_length must be >= 1, got {max_path_length}"
            )
        import networkx as nx

        self.max_path_length = int(max_path_length)
        self._graph = nx.DiGraph()
        self._graph.add_node(SYSTEM_NODE)

    def set_system_trust(self, rater_id: int, probability: float) -> None:
        """Set the system's direct recommendation trust in a rater.

        Args:
            rater_id: the trusted rater.
            probability: probability the rater recommends correctly
                (beta trust value from the rater's record).
        """
        self._set_edge(SYSTEM_NODE, rater_id, probability)

    def add_recommendation(
        self, source_id: int, target_id: int, score: float
    ) -> None:
        """Record a rater-on-rater recommendation (score in [0, 1])."""
        if source_id == target_id:
            raise ConfigurationError("self-recommendations are not allowed")
        self._set_edge(source_id, target_id, score)

    def _set_edge(self, source: int, target: int, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must lie in [0, 1], got {probability}"
            )
        self._graph.add_edge(source, target, trust=entropy_trust(probability))

    @property
    def n_raters(self) -> int:
        return self._graph.number_of_nodes() - 1

    def paths_to(self, target_id: int) -> List[Sequence[int]]:
        """All simple paths SYSTEM -> target up to the length cap."""
        import networkx as nx

        if target_id not in self._graph:
            return []
        return list(
            nx.all_simple_paths(
                self._graph, SYSTEM_NODE, target_id, cutoff=self.max_path_length
            )
        )

    def indirect_trust(self, target_id: int) -> float:
        """Entropy-trust in a target fused over all recommendation paths.

        Each path concatenates edge trusts left to right; parallel paths
        are fused by multipath weighting, where a path's weight is the
        concatenated trust of its *recommendation prefix* (everything
        but the final edge).

        Returns:
            Entropy trust in ``[-1, 1]``; 0 when no path exists.
        """
        paths = self.paths_to(target_id)
        if not paths:
            return 0.0
        prefix_trusts: List[float] = []
        path_trusts: List[float] = []
        for path in paths:
            edges = list(zip(path[:-1], path[1:]))
            prefix = 1.0
            for source, dest in edges[:-1]:
                prefix = concatenate(prefix, self._graph[source][dest]["trust"])
            final_source, final_dest = edges[-1]
            final_trust = self._graph[final_source][final_dest]["trust"]
            prefix_trusts.append(prefix)
            path_trusts.append(concatenate(prefix, final_trust) if edges[:-1] else final_trust)
        return multipath(prefix_trusts, path_trusts)

    def indirect_trust_table(self, rater_ids: Sequence[int]) -> Dict[int, float]:
        """Indirect entropy trust for a batch of raters."""
        return {rid: self.indirect_trust(rid) for rid in rater_ids}
