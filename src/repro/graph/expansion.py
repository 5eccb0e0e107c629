"""Graph expansion with external resources (Algorithm 2 of the paper).

Every data node of the graph is looked up in an external knowledge resource
(ConceptNet, DBpedia, WordNet — here, any object implementing the
:class:`repro.kb.knowledge_base.KnowledgeBase` interface).  All its related
entities/concepts are added as new ("external") data nodes with edges to the
original node.  After expansion, sink nodes (degree <= 1) are removed, since
a node connected to a single other node cannot create new paths between
metadata nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph.graph import MatchGraph, NodeKind
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class ExpansionResult:
    """Summary of one expansion pass."""

    nodes_before: int
    edges_before: int
    nodes_added: int
    edges_added: int
    sink_nodes_removed: int
    nodes_after: int
    edges_after: int


def expand_graph(
    graph: MatchGraph,
    resource,
    max_relations_per_node: Optional[int] = None,
    remove_sinks: bool = True,
) -> ExpansionResult:
    """Expand ``graph`` in place using ``resource`` (Algorithm 2).

    Parameters
    ----------
    graph:
        The graph produced by :class:`~repro.graph.builder.GraphBuilder`.
    resource:
        A knowledge base exposing ``related(term) -> Iterable[str]``.
    max_relations_per_node:
        Optional cap on the number of relations fetched per data node;
        ``None`` fetches everything the resource knows (the paper observes
        DBpedia has >800 relations for some entities — pruning is left to
        the compression step).
    remove_sinks:
        Remove degree<=1 non-metadata nodes after expansion (paper default).

    Returns
    -------
    ExpansionResult
        Before/after statistics of the expansion.
    """
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()

    # Iterate over a snapshot: expansion adds nodes that must not themselves
    # be expanded (only original data nodes are looked up, per Algorithm 2).
    # The whole pass is collected first and emitted as ONE bulk node add and
    # ONE bulk edge add: a single graph-version bump each instead of a cache
    # invalidation per relation.  ``add_edges_bulk`` dedups within the batch
    # and against existing edges, matching ``add_edge``'s per-call semantics.
    new_nodes: list = []
    seen: set = set()
    edge_u: list = []
    edge_v: list = []
    for label in list(graph.nodes()):
        if graph.is_metadata(label):
            continue
        related = resource.related(label)
        if max_relations_per_node is not None:
            related = list(related)[:max_relations_per_node]
        for neighbor in related:
            if not neighbor or neighbor == label:
                continue
            if neighbor not in seen and not graph.has_node(neighbor):
                seen.add(neighbor)
                new_nodes.append(neighbor)
            edge_u.append(label)
            edge_v.append(neighbor)

    nodes_added = graph.add_nodes_bulk(
        new_nodes, kind=NodeKind.DATA, corpus="external", role="external"
    )
    edges_added = graph.add_edges_bulk(edge_u, edge_v)

    sink_removed = 0
    if remove_sinks:
        sink_removed = graph.remove_sink_nodes(protect_metadata=True)

    result = ExpansionResult(
        nodes_before=nodes_before,
        edges_before=edges_before,
        nodes_added=nodes_added,
        edges_added=edges_added,
        sink_nodes_removed=sink_removed,
        nodes_after=graph.num_nodes(),
        edges_after=graph.num_edges(),
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
