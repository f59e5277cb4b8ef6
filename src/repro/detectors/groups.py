"""Collusion-group recovery from co-suspicion structure.

Procedure 1 scores raters individually, but the attack is a *group*
phenomenon: recruited raters keep landing in the same suspicious
windows, across windows and across products.  This module builds the
**co-suspicion graph** -- nodes are raters, edge weights count how
often two raters appeared together in flagged windows -- and extracts
candidate collusion groups as the connected components of the graph
after pruning weak edges.

A pair's edge weight counts the number of *reports* (product-intervals)
in which the two raters shared at least one flagged window -- counting
reports rather than windows, because overlapping windows within one
product-month would otherwise double-count a single encounter.  Honest
raters do stumble into flagged windows, but rarely together in *many
distinct campaigns*: an honest pair's weight stays at 1-2 over a year
while recruits who answer most monthly campaigns accumulate weights of
5+, so a small minimum edge weight separates the structures.  The
marketplace experiment (``repro.experiments.collusion_groups``)
measures group recovery precision/recall against the ground-truth
recruit lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Tuple

from repro.detectors.base import SuspicionReport
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CollusionGroups", "build_cosuspicion_graph", "extract_groups"]


@dataclass(frozen=True)
class CollusionGroups:
    """Candidate collusion groups and the graph they came from.

    Attributes:
        groups: candidate groups, largest first.
        graph: the pruned co-suspicion graph.
        n_windows: flagged windows that contributed edges.
    """

    groups: Tuple[FrozenSet[int], ...]
    graph: nx.Graph
    n_windows: int

    @property
    def flagged_raters(self) -> FrozenSet[int]:
        """Union of all candidate groups."""
        members: set = set()
        for group in self.groups:
            members |= group
        return frozenset(members)


def build_cosuspicion_graph(
    reports: Iterable[SuspicionReport],
    max_members_per_report: int = 1000,
) -> Tuple[nx.Graph, int]:
    """Accumulate pairwise co-occurrence counts over flagged windows.

    Within one report (one product-interval) a pair is counted at most
    once, however many overlapping flagged windows they share -- the
    edge weight measures *distinct campaigns jointly attended*.

    Args:
        reports: detector reports (one per product / interval).
        max_members_per_report: safety cap -- reports whose flagged
            windows cover more raters than this contribute no edges
            (a quadratic blowup guard).

    Returns:
        ``(graph, n_flagged_windows)``; edge attribute ``weight`` is
        the number of reports in which the pair co-occurred in a
        flagged window.
    """
    import networkx as nx

    graph = nx.Graph()
    n_windows = 0
    for report in reports:
        ratings = report.stream.ratings
        members: set = set()
        for verdict in report.verdicts:
            if not verdict.suspicious:
                continue
            n_windows += 1
            members |= {
                ratings[int(i)].rater_id for i in verdict.window.indices
            }
        if not 2 <= len(members) <= max_members_per_report:
            continue
        for a, b in combinations(sorted(members), 2):
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
            else:
                graph.add_edge(a, b, weight=1)
    return graph, n_windows


def extract_groups(
    graph: nx.Graph,
    min_edge_weight: int = 2,
    min_group_size: int = 3,
) -> Tuple[FrozenSet[int], ...]:
    """Prune weak edges and return connected components as groups.

    Args:
        graph: the co-suspicion graph.
        min_edge_weight: edges below this repeat count are noise (honest
            raters co-occur in a flagged window once by accident, not
            repeatedly).
        min_group_size: smaller components are discarded -- a collusion
            "group" of two is indistinguishable from coincidence.

    Returns:
        Groups sorted largest-first.
    """
    if min_edge_weight < 1:
        raise ConfigurationError(
            f"min_edge_weight must be >= 1, got {min_edge_weight}"
        )
    if min_group_size < 2:
        raise ConfigurationError(
            f"min_group_size must be >= 2, got {min_group_size}"
        )
    import networkx as nx

    strong = nx.Graph()
    for a, b, data in graph.edges(data=True):
        if data.get("weight", 0) >= min_edge_weight:
            strong.add_edge(a, b, weight=data["weight"])
    groups = [
        frozenset(component)
        for component in nx.connected_components(strong)
        if len(component) >= min_group_size
    ]
    groups.sort(key=len, reverse=True)
    return tuple(groups)


def detect_collusion_groups(
    reports: Iterable[SuspicionReport],
    min_edge_weight: int = 2,
    min_group_size: int = 3,
) -> CollusionGroups:
    """End-to-end: reports -> co-suspicion graph -> candidate groups."""
    graph, n_windows = build_cosuspicion_graph(reports)
    groups = extract_groups(
        graph, min_edge_weight=min_edge_weight, min_group_size=min_group_size
    )
    return CollusionGroups(groups=groups, graph=graph, n_windows=n_windows)
