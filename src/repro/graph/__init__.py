"""Graph substrate: the heterogeneous data/metadata graph of TDmatch.

Modules
-------
``graph``
    The immutable graph: a typed node registry (data vs metadata) over CSR
    adjacency arrays.
``builder``
    Algorithm 1 — joint graph creation over two corpora.
``filtering``
    Data-node filtering strategies (Intersect, TF-IDF, none).
``merging``
    Node-merging techniques: stemming (applied at preprocessing), numeric
    bucketing with the Freedman–Diaconis rule, and embedding-based merging.
``expansion``
    Algorithm 2 — expansion with an external knowledge resource.
``compression``
    Algorithm 3 (MSP) plus the SSP, SSuM-style, and random-sampling baselines.
``walks``
    Random-walk configuration and start-node resolution (walk half of
    Algorithm 4).
``csr``
    Frontier-array BFS over the graph's CSR arrays.
``walk_engine``
    The vectorised CSR walk engine and its serial/sharded dispatch.
"""

from repro.graph.graph import MatchGraph, NodeKind, dedup_edge_ids
from repro.graph.builder import GraphBuilder, GraphBuilderConfig
from repro.graph.filtering import (
    BulkFilter,
    BulkIntersectFilter,
    BulkNoFilter,
    BulkTfIdfFilter,
    FilterStatistics,
)
from repro.graph.merging import NumericBucketer, EmbeddingMerger, MergeReport
from repro.graph.expansion import expand_graph, ExpansionResult
from repro.graph.compression import (
    CompressionResult,
    msp_compress,
    ssp_compress,
    ssum_compress,
    random_node_compress,
    random_edge_compress,
)
from repro.graph.walks import RandomWalkConfig
from repro.graph.csr import (
    bfs_levels,
    gather_neighbors,
    multi_source_dag_union,
    shortest_path_dag_union,
)
from repro.graph.walk_engine import CSRWalkEngine, make_walk_engine

__all__ = [
    "MatchGraph",
    "NodeKind",
    "dedup_edge_ids",
    "GraphBuilder",
    "GraphBuilderConfig",
    "FilterStatistics",
    "BulkFilter",
    "BulkIntersectFilter",
    "BulkNoFilter",
    "BulkTfIdfFilter",
    "NumericBucketer",
    "EmbeddingMerger",
    "MergeReport",
    "expand_graph",
    "ExpansionResult",
    "CompressionResult",
    "msp_compress",
    "ssp_compress",
    "ssum_compress",
    "random_node_compress",
    "random_edge_compress",
    "RandomWalkConfig",
    "bfs_levels",
    "gather_neighbors",
    "multi_source_dag_union",
    "shortest_path_dag_union",
    "CSRWalkEngine",
    "make_walk_engine",
]
