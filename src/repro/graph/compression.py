"""Graph compression (Section III-B of the paper).

The paper proposes **MSP** (Metadata Shortest Path, Algorithm 3): sample
pairs of metadata nodes from the two corpora, compute all shortest paths
between them, and keep the union of the nodes and edges on those paths; the
number of iterations is β·|V|.  Every metadata node — even if never sampled —
is finally connected to the compressed graph through at least one shortest
path so that no object to match is lost.

Baselines implemented for Table VIII and the related-work comparison:

* **SSP** — the original shortest-path sampling over *random* node pairs
  (not restricted to metadata nodes).
* **SSuM-style** — a task-agnostic summarizer: greedy grouping of
  structurally similar low-degree nodes plus edge sparsification down to a
  target ratio of the input size.
* **random node / edge sampling** — the classic baselines from the graph
  sampling literature.

MSP and SSP run one numpy frontier BFS per *distinct* sampled source over
the graph's CSR arrays, followed by a single backward sweep that takes the
union of the shortest-path DAG for every target of that source at once
(:func:`repro.graph.csr.shortest_path_dag_union`), so no individual path is
ever materialised.  Every method returns a new graph made by
:meth:`MatchGraph.keep <repro.graph.graph.MatchGraph.keep>` from a node
mask (and, for MSP, SSP and random edges, the kept edges), so it keeps the
source graph's node order: the node ids the walk engine reads do not
depend on the order in which paths or samples were drawn.  The per-pair
path enumeration (one shortest-path enumeration per sampled pair) is the
test oracle in ``tests/oracles/compression.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import bfs_levels, multi_source_dag_union, shortest_path_dag_union
from repro.graph.graph import MatchGraph
from repro.utils.rng import ensure_rng


@dataclass
class CompressionResult:
    """A compressed graph together with size statistics."""

    graph: MatchGraph
    method: str
    nodes_before: int
    edges_before: int

    @property
    def nodes_after(self) -> int:
        return self.graph.num_nodes()

    @property
    def edges_after(self) -> int:
        return self.graph.num_edges()

    @property
    def node_ratio(self) -> float:
        return self.nodes_after / self.nodes_before if self.nodes_before else 1.0


# ----------------------------------------------------------------------
# Shared MSP / SSP machinery
def _sample_pair_indices(
    rng, n_first: int, n_second: int, iterations: int
) -> List[Tuple[int, int]]:
    """The β·|V| sampled index pairs: per iteration, a first index, then a
    second index, each one scalar draw."""
    pairs = []
    for _ in range(iterations):
        i = int(rng.integers(0, n_first))
        j = int(rng.integers(0, n_second))
        pairs.append((i, j))
    return pairs


# ----------------------------------------------------------------------
# MSP — Algorithm 3
def msp_compress(
    graph: MatchGraph,
    first_metadata: Sequence[str],
    second_metadata: Sequence[str],
    beta: float = 0.5,
    seed=None,
    parallel=None,
) -> CompressionResult:
    """Metadata Shortest Path compression (Algorithm 3).

    Parameters
    ----------
    graph:
        The (possibly expanded) graph to compress.
    first_metadata / second_metadata:
        Metadata-node labels of the two corpora; pairs are sampled across
        the two sets.
    beta:
        Compression ratio — the number of sampled pairs is ``beta *
        graph.num_nodes()``.
    seed:
        Seed / generator for pair sampling.
    parallel:
        Optional :class:`repro.parallel.ParallelConfig`; a plan of more than
        one shard runs the DAG-union sweep as shard tasks (output-identical
        to the serial sweep at any shard and worker count).
    """
    if not 0 < beta:
        raise ValueError("beta must be positive")
    first_metadata = [m for m in first_metadata if graph.has_node(m)]
    second_metadata = [m for m in second_metadata if graph.has_node(m)]
    if not first_metadata or not second_metadata:
        raise ValueError("both corpora must contribute at least one metadata node")

    rng = ensure_rng(seed)
    nodes_before = graph.num_nodes()
    edges_before = graph.num_edges()
    iterations = max(1, int(beta * nodes_before))
    pairs = _sample_pair_indices(rng, len(first_metadata), len(second_metadata), iterations)

    first_ids = graph.encode(first_metadata).astype(np.int64)
    second_ids = graph.encode(second_metadata).astype(np.int64)
    compressed = _msp_bulk(graph, first_ids, second_ids, pairs, parallel=parallel)
    return CompressionResult(
        graph=compressed, method=f"msp({beta})", nodes_before=nodes_before, edges_before=edges_before
    )


def _grouped_dag_union(graph: MatchGraph, by_source: Dict[int, Set[int]], parallel=None):
    """Run the batched DAG-union sweep over a ``{source: targets}`` grouping.

    A ``parallel`` plan (a :class:`repro.parallel.ParallelConfig`) of more
    than one shard runs the sweep as shard tasks over shared memory; one
    shard is this single sweep, at any worker count.  The downstream masks
    and :meth:`MatchGraph.keep` make the result order- and
    duplicate-insensitive, so the sharded sweep is output-identical.
    """
    sources = sorted(by_source)
    source_ids = np.array(sources, dtype=np.int64)
    targets_list = [
        np.fromiter(by_source[s], dtype=np.int64, count=len(by_source[s])) for s in sources
    ]
    if parallel is not None and parallel.shards > 1:
        # Imported lazily: repro.parallel.compression imports repro.graph.csr.
        from repro.parallel.compression import parallel_grouped_dag_union

        return parallel_grouped_dag_union(graph, source_ids, targets_list, parallel)
    return multi_source_dag_union(graph, source_ids, targets_list)


def _msp_bulk(
    graph: MatchGraph,
    first_ids: np.ndarray,
    second_ids: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    parallel=None,
) -> MatchGraph:
    # Group the sampled pairs by source node so one BFS sweep serves every
    # pair sharing that endpoint (for MSP the number of distinct sources is
    # bounded by |first_metadata|, not by the β·|V| iteration count).
    by_source: Dict[int, Set[int]] = {}
    for i, j in pairs:
        by_source.setdefault(int(first_ids[i]), set()).add(int(second_ids[j]))

    n = graph.num_nodes()
    node_mask = np.zeros(n, dtype=bool)
    connected_mask = np.zeros(n, dtype=bool)
    edge_u_chunks: List[np.ndarray] = []
    edge_v_chunks: List[np.ndarray] = []

    def collect(nodes: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        if nodes.size:
            node_mask[nodes] = True
        if edge_u.size:
            edge_u_chunks.append(edge_u)
            edge_v_chunks.append(edge_v)
            connected_mask[edge_u] = True
            connected_mask[edge_v] = True

    collect(*_grouped_dag_union(graph, by_source, parallel=parallel))

    _ensure_metadata_connected_bulk(
        graph, first_ids, second_ids, node_mask, connected_mask, collect
    )

    empty = np.empty(0, dtype=np.int64)
    return graph.keep(
        node_mask,
        np.concatenate(edge_u_chunks) if edge_u_chunks else empty,
        np.concatenate(edge_v_chunks) if edge_v_chunks else empty,
    )


# ----------------------------------------------------------------------
# Metadata connectivity guarantee
#
# Every metadata node must end up connected to the compressed graph
# whenever the original graph permits it: walk the metadata nodes of each
# side in order, and for every node not yet incident to a compressed edge,
# add the union of the shortest paths to the *nearest reachable* other-side
# metadata node (ties broken by smallest label).  Only when no other-side
# node is reachable at all is the node kept bare.
def _ensure_metadata_connected_bulk(
    graph: MatchGraph,
    first_ids: np.ndarray,
    second_ids: np.ndarray,
    node_mask: np.ndarray,
    connected_mask: np.ndarray,
    collect,
) -> None:
    labels = graph.labels
    for metadata_ids, other_ids in ((first_ids, second_ids), (second_ids, first_ids)):
        for node_id in metadata_ids.tolist():
            if connected_mask[node_id]:
                continue
            # A label promoted to corpus "both" appears on both sides; it is
            # never its own connection target — without this the level-0
            # self-target would satisfy ``stop="any"`` before the BFS ever
            # expands, and the node would wrongly be kept bare.
            targets = other_ids[other_ids != node_id]
            if targets.size == 0:
                node_mask[node_id] = True  # no possible partner: keep bare
                continue
            levels = bfs_levels(graph, node_id, targets=targets, stop="any")
            target_levels = levels[targets]
            reachable = targets[target_levels > 0]
            if reachable.size == 0:
                node_mask[node_id] = True  # keep the bare node
                continue
            nearest = int(reachable[target_levels[target_levels > 0].argmin()])
            at_min = reachable[levels[reachable] == levels[nearest]]
            target = min(at_min.tolist(), key=lambda i: labels[i])
            collect(
                *shortest_path_dag_union(
                    graph, node_id, np.array([target], dtype=np.int64), levels=levels
                )
            )


# ----------------------------------------------------------------------
# SSP — shortest paths between random node pairs (Rezvanian & Meybodi)
def ssp_compress(
    graph: MatchGraph,
    beta: float = 0.5,
    seed=None,
    parallel=None,
) -> CompressionResult:
    """Shortest-path sampling over uniformly random node pairs.

    ``parallel`` shards the DAG-union sweep exactly as in
    :func:`msp_compress`.
    """
    if not 0 < beta:
        raise ValueError("beta must be positive")
    rng = ensure_rng(seed)
    nodes_before = graph.num_nodes()
    if nodes_before < 2:
        raise ValueError("graph must have at least two nodes")
    edges_before = graph.num_edges()
    iterations = max(1, int(beta * nodes_before))
    pairs = _sample_pair_indices(rng, nodes_before, nodes_before, iterations)

    # Sampled indices are node ids: a graph's node list is its id order.
    by_source: Dict[int, Set[int]] = {}
    for i, j in pairs:
        if i != j:
            by_source.setdefault(i, set()).add(j)
    dag_nodes, edge_u, edge_v = _grouped_dag_union(graph, by_source, parallel=parallel)
    node_mask = np.zeros(nodes_before, dtype=bool)
    node_mask[dag_nodes] = True
    return CompressionResult(
        graph=graph.keep(node_mask, edge_u, edge_v),
        method=f"ssp({beta})",
        nodes_before=nodes_before,
        edges_before=edges_before,
    )


# ----------------------------------------------------------------------
# SSuM-style summarization
def _merge_identical_neighborhoods(graph: MatchGraph, alive: np.ndarray) -> int:
    """Merge data nodes sharing their entire neighbourhood, to a fixpoint.

    Two nodes with one neighbourhood are never adjacent, so merging one
    into the other only deletes it: the merge clears ``alive`` at every
    absorbed node.  A node's signature is its sorted live neighbour labels,
    recomputed from the CSR rows group by group: merging one super-node
    can change the neighbourhood of other data nodes (when data nodes are
    adjacent to data nodes), so each group is re-verified immediately
    before its merge and the pass repeats until no group with two live
    members remains.  Returns the number of absorbed nodes.
    """
    labels, indptr, indices = graph.labels, graph.indptr, graph.indices
    data = np.flatnonzero(~graph.metadata_mask()).tolist()

    def signature(node: int) -> Tuple[str, ...]:
        row = indices[indptr[node] : indptr[node + 1]]
        return tuple(sorted(labels[v] for v in row[alive[row]].tolist()))

    merged = 0
    changed = True
    while changed:
        changed = False
        groups: Dict[Tuple[str, ...], List[int]] = {}
        for node in data:
            if alive[node]:
                groups.setdefault(signature(node), []).append(node)
        for key in sorted(groups):
            members = [node for node in groups[key] if alive[node] and signature(node) == key]
            if len(members) < 2:
                continue
            alive[members[1:]] = False  # members[0] keeps the group
            merged += len(members) - 1
            changed = True
    return merged


def ssum_compress(
    graph: MatchGraph,
    target_ratio: float = 0.1,
    seed=None,
) -> CompressionResult:
    """Task-agnostic summarization in the spirit of SSumM.

    The method (i) groups data nodes that share their entire neighbourhood
    into a single super-node (recomputing the grouping until a fixpoint, so
    merges triggered by earlier merges are not missed), and (ii) drops the
    lowest-connectivity data nodes — by *live* degree, maintained in a heap
    as removals shrink their neighbours — until roughly ``target_ratio`` of
    the original data nodes survive.  Metadata nodes are never grouped or
    dropped.  Both phases only delete nodes, so the summary is the graph
    induced by one keep mask.  This reproduces the qualitative behaviour
    reported in Table VIII: good size reduction, but no awareness of the
    metadata-to-metadata paths that matter for matching.
    """
    if not 0 < target_ratio <= 1:
        raise ValueError("target_ratio must be in (0, 1]")
    rng = ensure_rng(seed)
    n = graph.num_nodes()
    is_data = ~graph.metadata_mask()
    alive = np.ones(n, dtype=bool)

    # Phase 1: merge data nodes with identical neighbourhoods (super-nodes).
    _merge_identical_neighborhoods(graph, alive)

    # Phase 2: drop the lowest-connectivity data nodes until only
    # ``target_ratio`` of the original data nodes survive.  Metadata nodes
    # are never dropped, and at least a handful of data nodes always remain
    # so the summarized graph stays walkable.  Selection is by live degree:
    # a removal re-queues its data neighbours at their new degree, and
    # entries whose degree went stale are discarded on pop.  Ties are broken
    # by a seeded random rank, so results stay reproducible.
    indptr, indices = graph.indptr, graph.indices
    target_data = max(4, int(target_ratio * int(is_data.sum())))
    data = np.flatnonzero(is_data & alive)
    ranks = np.zeros(n, dtype=np.int64)
    ranks[data] = rng.permutation(data.size)
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    degree = np.bincount(heads[alive[indices]], minlength=n)
    heap = [(int(degree[node]), int(ranks[node]), node) for node in data.tolist()]
    heapq.heapify(heap)
    remaining = data.size
    while remaining > target_data and heap:
        node_degree, _rank, node = heapq.heappop(heap)
        if not alive[node] or degree[node] != node_degree:
            continue  # removed, or stale — a fresher entry is in the heap
        alive[node] = False
        remaining -= 1
        row = indices[indptr[node] : indptr[node + 1]]
        row = row[alive[row]]
        degree[row] -= 1
        for neighbor in row[is_data[row]].tolist():
            heapq.heappush(heap, (int(degree[neighbor]), int(ranks[neighbor]), neighbor))

    return CompressionResult(
        graph=graph.keep(alive),
        method=f"ssum({target_ratio})",
        nodes_before=n,
        edges_before=graph.num_edges(),
    )


# ----------------------------------------------------------------------
# Classic sampling baselines
def random_node_compress(graph: MatchGraph, keep_ratio: float = 0.5, seed=None) -> CompressionResult:
    """Keep a uniform sample of data nodes (metadata nodes always kept).

    The draw is over the data nodes in the graph's order, and the sample
    keeps that order.
    """
    if not 0 < keep_ratio <= 1:
        raise ValueError("keep_ratio must be in (0, 1]")
    rng = ensure_rng(seed)
    keep = graph.metadata_mask()
    data = np.flatnonzero(~keep)
    n_keep = int(round(keep_ratio * data.size))
    if n_keep:
        keep[data[rng.choice(data.size, size=n_keep, replace=False)]] = True
    return CompressionResult(
        graph=graph.keep(keep),
        method=f"random-node({keep_ratio})",
        nodes_before=graph.num_nodes(),
        edges_before=graph.num_edges(),
    )


def random_edge_compress(graph: MatchGraph, keep_ratio: float = 0.5, seed=None) -> CompressionResult:
    """Keep a uniform sample of edges; isolated data nodes are dropped.

    The draw is over the edges in ``(lo, hi)`` id order
    (:meth:`MatchGraph.edge_ids`), and the sample keeps the graph's node
    order.
    """
    if not 0 < keep_ratio <= 1:
        raise ValueError("keep_ratio must be in (0, 1]")
    rng = ensure_rng(seed)
    lo, hi = graph.edge_ids()
    n_keep = int(round(keep_ratio * lo.size))
    chosen = rng.choice(lo.size, size=n_keep, replace=False) if n_keep else np.empty(0, np.int64)
    keep = graph.metadata_mask()
    keep[lo[chosen]] = True
    keep[hi[chosen]] = True
    return CompressionResult(
        graph=graph.keep(keep, lo[chosen], hi[chosen]),
        method=f"random-edge({keep_ratio})",
        nodes_before=graph.num_nodes(),
        edges_before=graph.num_edges(),
    )
