"""Reference MSP / SSP compression: one path enumeration per sampled pair.

Each sampled pair runs :meth:`ReferenceGraph.all_shortest_paths
<tests.oracles.graph.ReferenceGraph.all_shortest_paths>` and the union of
the enumerated paths is collected label by label.  Pairs come from the
library's own sampler, so a shared seed draws the same pairs as
:func:`repro.graph.compression.msp_compress`; with an enumeration cap that
never truncates (the default here) the two must produce the same
compressed node list and edge set.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.graph.compression import CompressionResult, _sample_pair_indices
from repro.graph.graph import MatchGraph
from repro.utils.rng import ensure_rng
from tests.oracles.graph import ReferenceGraph

#: Large enough that path enumeration is never truncated on test graphs —
#: the regime in which the bulk union and the enumeration are equal.
UNBOUNDED = 10**6


class _UnionCollector:
    """Accumulates the node and canonical edge label sets of a compression."""

    def __init__(self) -> None:
        self.nodes: Set[str] = set()
        self.edges: Set[Tuple[str, str]] = set()
        self.connected: Set[str] = set()

    def add_path(self, path: Sequence[str]) -> None:
        self.nodes.update(path)
        for u, v in zip(path, path[1:]):
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge not in self.edges:
                self.edges.add(edge)
                self.connected.add(u)
                self.connected.add(v)

    def add_node(self, label: str) -> None:
        self.nodes.add(label)

    def compressed(self, graph: ReferenceGraph) -> MatchGraph:
        """The collected nodes and edges, in the source graph's node order."""
        kept = ReferenceGraph()
        for label in graph.nodes():
            if label in self.nodes:
                info = graph.node_info(label)
                kept.add_node(label, kind=info.kind, corpus=info.corpus, role=info.role)
        for u, v in sorted(self.edges):
            kept.add_edge(u, v)
        return kept.freeze()


def msp_reference(
    graph: MatchGraph,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    beta: float = 0.5,
    seed=None,
    max_paths_per_pair: int = UNBOUNDED,
) -> CompressionResult:
    """Metadata Shortest Path compression (Algorithm 3) by path enumeration."""
    graph = ReferenceGraph.thaw(graph)
    first_metadata = [m for m in first_metadata if graph.has_node(m)]
    second_metadata = [m for m in second_metadata if graph.has_node(m)]
    rng = ensure_rng(seed)
    nodes_before = graph.num_nodes()
    iterations = max(1, int(beta * nodes_before))
    pairs = _sample_pair_indices(rng, len(first_metadata), len(second_metadata), iterations)

    collector = _UnionCollector()
    for i, j in pairs:
        for path in graph.all_shortest_paths(
            first_metadata[i], second_metadata[j], limit=max_paths_per_pair
        ):
            collector.add_path(path)
    _ensure_metadata_connected_reference(
        graph, collector, first_metadata, second_metadata, max_paths_per_pair
    )
    return CompressionResult(
        graph=collector.compressed(graph),
        method=f"msp({beta})",
        nodes_before=nodes_before,
        edges_before=graph.num_edges(),
    )


def ssp_reference(
    graph: MatchGraph,
    beta: float = 0.5,
    seed=None,
    max_paths_per_pair: int = UNBOUNDED,
) -> CompressionResult:
    """Shortest-path sampling over uniformly random node pairs."""
    graph = ReferenceGraph.thaw(graph)
    rng = ensure_rng(seed)
    nodes = graph.nodes()
    nodes_before = graph.num_nodes()
    iterations = max(1, int(beta * nodes_before))
    pairs = _sample_pair_indices(rng, len(nodes), len(nodes), iterations)

    collector = _UnionCollector()
    for i, j in pairs:
        if i == j:
            continue
        for path in graph.all_shortest_paths(nodes[i], nodes[j], limit=max_paths_per_pair):
            collector.add_path(path)
    return CompressionResult(
        graph=collector.compressed(graph),
        method=f"ssp({beta})",
        nodes_before=nodes_before,
        edges_before=graph.num_edges(),
    )


def _ensure_metadata_connected_reference(
    graph: ReferenceGraph,
    collector: _UnionCollector,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    max_paths_per_pair: int,
) -> None:
    """Connect every metadata node left bare to its nearest other-side node.

    Walks the metadata nodes of each side in order; a node not yet incident
    to a collected edge gets the shortest paths to the *nearest reachable*
    other-side metadata node (smallest label on ties).  A node with no
    reachable partner is kept bare.
    """
    for metadata, other_side in ((first_metadata, second_metadata), (second_metadata, first_metadata)):
        for label in metadata:
            if label in collector.connected:
                continue
            target = _nearest_other_side(graph, label, other_side)
            if target is not None:
                for path in graph.all_shortest_paths(label, target, limit=max_paths_per_pair):
                    collector.add_path(path)
            else:
                collector.add_node(label)


def _nearest_other_side(
    graph: ReferenceGraph, label: str, other_side: Sequence[str]
) -> Optional[str]:
    """Nearest reachable other-side metadata node (smallest label on ties)."""
    other = set(other_side)
    other.discard(label)
    seen = {label}
    frontier = [label]
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        hits = [node for node in next_frontier if node in other]
        if hits:
            return min(hits)
        frontier = next_frontier
    return None
