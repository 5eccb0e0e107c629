"""Graph expansion with external resources (Algorithm 2 of the paper).

Every data node of the graph is looked up in an external knowledge resource
(ConceptNet, DBpedia, WordNet — here, any object implementing the
:class:`repro.kb.knowledge_base.KnowledgeBase` interface).  All its related
entities/concepts are added as new ("external") data nodes with edges to the
original node.  After expansion, sink nodes (degree <= 1) are removed, since
a node connected to a single other node cannot create new paths between
metadata nodes.  The expanded graph is a new
:class:`~repro.graph.graph.MatchGraph`: the new nodes are appended after
the graph's own, and the sinks are masked out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import MatchGraph, NodeKind
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class ExpansionResult:
    """The expanded graph and the statistics of the pass."""

    graph: MatchGraph
    nodes_before: int
    edges_before: int
    nodes_added: int
    edges_added: int
    sink_nodes_removed: int

    @property
    def nodes_after(self) -> int:
        return self.graph.num_nodes()

    @property
    def edges_after(self) -> int:
        return self.graph.num_edges()


def expand_graph(graph: MatchGraph, resource) -> ExpansionResult:
    """Expand ``graph`` using ``resource`` (Algorithm 2).

    Every relation the resource knows is added (the paper observes DBpedia
    has >800 relations for some entities — pruning is left to the
    compression step), then the degree<=1 non-metadata nodes are removed.

    Parameters
    ----------
    graph:
        The graph produced by :class:`~repro.graph.builder.GraphBuilder`.
    resource:
        A knowledge base exposing ``related(term) -> Iterable[str]``.

    Returns
    -------
    ExpansionResult
        The expanded graph with its before/after statistics.
    """
    # Only the graph's own data nodes are looked up (Algorithm 2); new
    # related entities are appended after them, in first-seen order, and
    # every relation becomes an edge (one per pair, however often seen).
    ids = dict(graph.ids)
    new_nodes: list = []
    edge_u: list = []
    edge_v: list = []
    metadata = graph.metadata_mask()
    for node_id, label in enumerate(graph.labels):
        if metadata[node_id]:
            continue
        for neighbor in resource.related(label):
            if not neighbor or neighbor == label:
                continue
            neighbor_id = ids.get(neighbor)
            if neighbor_id is None:
                neighbor_id = ids[neighbor] = len(ids)
                new_nodes.append(neighbor)
            edge_u.append(node_id)
            edge_v.append(neighbor_id)

    nodes_added = len(new_nodes)
    expanded = graph.append(
        new_nodes,
        [NodeKind.DATA] * nodes_added,
        ["external"] * nodes_added,
        ["external"] * nodes_added,
        edge_u,
        edge_v,
    )
    edges_added = expanded.num_edges() - graph.num_edges()
    # The cleaning step: one pass over the expanded graph's degrees.
    keep = expanded.metadata_mask() | (expanded.degrees() > 1)
    sink_removed = int(keep.size - keep.sum())

    result = ExpansionResult(
        graph=expanded.keep(keep),
        nodes_before=graph.num_nodes(),
        edges_before=graph.num_edges(),
        nodes_added=nodes_added,
        edges_added=edges_added,
        sink_nodes_removed=sink_removed,
    )
    logger.debug(
        "expansion: +%d nodes, +%d edges, -%d sinks (now %d nodes / %d edges)",
        nodes_added,
        edges_added,
        sink_removed,
        result.nodes_after,
        result.edges_after,
    )
    return result
