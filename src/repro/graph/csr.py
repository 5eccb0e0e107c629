"""Immutable CSR (compressed sparse row) snapshot of a :class:`MatchGraph`.

The dict-of-sets adjacency of :class:`~repro.graph.graph.MatchGraph` is the
right structure for incremental construction, merging, and compression, but
it is the wrong structure for random-walk generation: Algorithm 4 takes
``num_walks × num_nodes × walk_length`` neighbour samples, and each sample
through the dict costs a hash lookup, a set→tuple conversion, and one Python
``rng.integers`` call.

:class:`CSRAdjacency` freezes the topology into two numpy arrays —
``indptr`` (row offsets, one row per node) and ``indices`` (concatenated
neighbour ids) — plus label↔id translation tables.  The vectorised walk
engine advances thousands of walks per numpy call against these arrays.

Snapshots are cached on the graph instance and keyed by the graph's
structural :attr:`~repro.graph.graph.MatchGraph.version`, so repeated walk
generations reuse the snapshot while any mutation (node/edge add or remove,
merging, compression) transparently invalidates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.graph.graph import MatchGraph

# Attribute under which the (version, snapshot) pair is cached on the graph.
_CACHE_ATTR = "_csr_cache"


@dataclass(frozen=True)
class CSRAdjacency:
    """Frozen CSR view of an undirected graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of shape ``(num_nodes + 1,)``; the neighbours of
        node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int32`` array of concatenated neighbour ids, sorted within each
        row for deterministic layout.
    labels:
        Node id → label (insertion order of the source graph).
    ids:
        Node label → id (inverse of ``labels``).
    graph_version:
        The structural version of the source graph at snapshot time.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: List[str]
    ids: Dict[str, int] = field(repr=False)
    graph_version: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array."""
        return np.diff(self.indptr)

    def degree_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Degrees of the given node ids (vectorised)."""
        return self.indptr[node_ids + 1] - self.indptr[node_ids]

    def neighbors_of(self, node_id: int) -> np.ndarray:
        """Neighbour ids of one node (a view into ``indices``)."""
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        """Translate labels to an ``int32`` id array (labels must exist)."""
        return np.fromiter(
            (self.ids[label] for label in labels), dtype=np.int32, count=len(labels)
        )

    def decode(self, node_ids: Sequence[int]) -> List[str]:
        """Translate an id sequence back to labels."""
        labels = self.labels
        return [labels[int(i)] for i in node_ids]


def build_csr(graph: MatchGraph) -> CSRAdjacency:
    """Build a fresh CSR snapshot of ``graph`` (no caching)."""
    labels = graph.nodes()
    n = len(labels)
    ids = {label: i for i, label in enumerate(labels)}

    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, label in enumerate(labels):
        indptr[i + 1] = indptr[i] + graph.degree(label)

    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for i, label in enumerate(labels):
        row = sorted(ids[neighbor] for neighbor in graph.neighbors(label))
        indices[indptr[i] : indptr[i + 1]] = row

    snapshot = CSRAdjacency(
        indptr=indptr,
        indices=indices,
        labels=labels,
        ids=ids,
        graph_version=graph.version,
    )
    return snapshot


def build_csr_from_edges(
    labels: Sequence[str],
    u_ids: np.ndarray,
    v_ids: np.ndarray,
    graph_version: int = 0,
) -> CSRAdjacency:
    """Build a CSR snapshot straight from undirected edge id arrays.

    ``labels`` fixes the id space (position == id, matching the node
    insertion order of the source graph); ``u_ids``/``v_ids`` must contain
    every undirected edge exactly once, with no self-loops (the bulk graph
    builder guarantees this via :func:`repro.graph.graph.dedup_edge_ids`).
    Produces exactly what :func:`build_csr` would for the same topology —
    rows sorted by neighbour id — without iterating the dict-of-sets
    adjacency or re-interning labels.
    """
    n = len(labels)
    ids = {label: i for i, label in enumerate(labels)}
    u = np.asarray(u_ids, dtype=np.int64)
    v = np.asarray(v_ids, dtype=np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRAdjacency(
        indptr=indptr,
        indices=dst[order].astype(np.int32),
        labels=list(labels),
        ids=ids,
        graph_version=graph_version,
    )


# ----------------------------------------------------------------------
# Frontier-array BFS primitives (used by MSP/SSP compression)
def _gather(csr: CSRAdjacency, nodes: np.ndarray):
    """Row lengths and concatenated CSR rows of ``nodes``.

    One ``np.repeat`` + one fancy index replace a Python loop over
    per-node slices.
    """
    starts = csr.indptr[nodes]
    counts = csr.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return counts, np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return counts, csr.indices[positions].astype(np.int64)


def gather_neighbors(csr: CSRAdjacency, nodes: np.ndarray):
    """Concatenated neighbour rows of ``nodes``, with their row owners.

    Returns ``(heads, neighbors)`` where ``neighbors`` is the concatenation
    of the CSR rows of ``nodes`` and ``heads[i]`` is the node whose row
    produced ``neighbors[i]``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    counts, neighbors = _gather(csr, nodes)
    return np.repeat(nodes, counts), neighbors


def bfs_levels(
    csr: CSRAdjacency,
    source: int,
    targets: np.ndarray = None,
    stop: str = "all",
) -> np.ndarray:
    """BFS levels from ``source`` with numpy frontier arrays.

    Returns an ``int32`` array with the BFS distance of every node from
    ``source`` (``-1`` for unreached nodes).  When ``targets`` is given the
    sweep terminates early: with ``stop="all"`` once every target has a
    level, with ``stop="any"`` once at least one does.  Either way the
    level at which the sweep stops is fully assigned, so every returned
    level ``<= max(assigned target levels)`` is complete — the property the
    backward shortest-path-DAG sweep relies on.
    """
    if stop not in ("all", "any"):
        raise ValueError(f"stop must be 'all' or 'any', got {stop!r}")
    levels = np.full(csr.num_nodes, -1, dtype=np.int32)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
    depth = 0
    while frontier.size:
        if targets is not None and targets.size:
            found = levels[targets] >= 0
            if found.all() if stop == "all" else found.any():
                break
        depth += 1
        _heads, neighbors = gather_neighbors(csr, frontier)
        neighbors = neighbors[levels[neighbors] < 0]
        if neighbors.size == 0:
            break
        frontier = np.unique(neighbors)
        levels[frontier] = depth
    return levels


def shortest_path_dag_union(
    csr: CSRAdjacency,
    source: int,
    targets: np.ndarray,
    levels: np.ndarray = None,
):
    """Union of all shortest paths from ``source`` to each reached target.

    One forward BFS (or pre-computed ``levels``) plus one backward sweep
    over the level DAG serves every target at once: a node at level ``l``
    is on a shortest path to some target iff it can reach a target going
    forward through level-increasing edges, so the backward frontier at
    level ``l`` is the union of the targets at ``l`` and the level-``l``
    predecessors of the frontier at ``l + 1``.  Unreachable targets
    contribute nothing (there is no path to enumerate for them).

    Returns ``(nodes, edge_u, edge_v)`` — id arrays of the union's nodes
    and of its DAG edges (unique within one call; callers accumulating
    across sources dedup with :func:`repro.graph.graph.dedup_edge_ids`).
    """
    targets = np.unique(np.asarray(targets, dtype=np.int64))
    if levels is None:
        levels = bfs_levels(csr, source, targets, stop="all")
    target_levels = levels[targets]
    reached = targets[target_levels > 0]
    empty = np.empty(0, dtype=np.int64)
    if reached.size == 0:
        # Only the degenerate source==target pair contributes (node alone).
        if (target_levels == 0).any():
            return np.array([source], dtype=np.int64), empty, empty
        return empty, empty, empty
    node_chunks = [np.array([source], dtype=np.int64), reached]
    edge_u_chunks, edge_v_chunks = [], []
    reached_levels = levels[reached]
    frontier = np.empty(0, dtype=np.int64)
    for lvl in range(int(reached_levels.max()), 0, -1):
        at_level = reached[reached_levels == lvl]
        if at_level.size:
            frontier = np.unique(np.concatenate([frontier, at_level]))
        heads, neighbors = gather_neighbors(csr, frontier)
        keep = levels[neighbors] == lvl - 1
        preds = neighbors[keep]
        edge_u_chunks.append(preds)
        edge_v_chunks.append(heads[keep])
        frontier = np.unique(preds)
        if lvl > 1:
            node_chunks.append(frontier)
    nodes = np.unique(np.concatenate(node_chunks))
    return (
        nodes,
        np.concatenate(edge_u_chunks),
        np.concatenate(edge_v_chunks),
    )


def multi_source_dag_union(
    csr: CSRAdjacency,
    sources: np.ndarray,
    targets_list,
    max_state_entries: int = 4_000_000,
):
    """Shortest-path-DAG union for many ``(source, targets)`` groups at once.

    The single-source sweep (:func:`shortest_path_dag_union`) pays numpy
    call overhead per BFS level *per source*; this variant advances every
    group in lock-step instead, carrying the frontier as ``(group row,
    node)`` pairs against one ``(B, n)`` level matrix, so each BFS level is
    one batch of numpy ops for all groups together.  Groups are processed
    in chunks of at most ``max_state_entries`` level-matrix cells to bound
    memory (``int32`` cells: the default caps a chunk at ~16 MB).

    Returns ``(nodes, edge_u, edge_v)`` id arrays — the union over all
    groups.  Edges are unique within a group but may repeat across groups;
    callers dedup with :func:`repro.graph.graph.dedup_edge_ids`.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = csr.num_nodes
    total = len(sources)
    chunk = max(1, min(total, max_state_entries // max(1, n)))
    node_chunks: list = []
    edge_u_chunks: list = []
    edge_v_chunks: list = []
    for start in range(0, total, chunk):
        nodes, edge_u, edge_v = _dag_union_batch(
            csr, sources[start : start + chunk], targets_list[start : start + chunk]
        )
        if nodes.size:
            node_chunks.append(nodes)
        if edge_u.size:
            edge_u_chunks.append(edge_u)
            edge_v_chunks.append(edge_v)
    empty = np.empty(0, dtype=np.int64)
    return (
        np.unique(np.concatenate(node_chunks)) if node_chunks else empty,
        np.concatenate(edge_u_chunks) if edge_u_chunks else empty,
        np.concatenate(edge_v_chunks) if edge_v_chunks else empty,
    )


def _gather_rows(csr: CSRAdjacency, rows: np.ndarray, nodes: np.ndarray):
    """CSR row gather for (group row, node) frontier pairs."""
    counts, neighbors = _gather(csr, nodes)
    return np.repeat(rows, counts), np.repeat(nodes, counts), neighbors


def _dag_union_batch(csr: CSRAdjacency, sources: np.ndarray, targets_list):
    n = np.int64(csr.num_nodes)
    batch = len(sources)
    levels = np.full(batch * int(n), -1, dtype=np.int32)
    levels[np.arange(batch, dtype=np.int64) * n + sources] = 0
    target_rows = np.repeat(
        np.arange(batch, dtype=np.int64),
        np.fromiter((len(t) for t in targets_list), dtype=np.int64, count=batch),
    )
    target_nodes = (
        np.concatenate([np.asarray(t, dtype=np.int64) for t in targets_list])
        if len(target_rows)
        else np.empty(0, dtype=np.int64)
    )
    target_flat = target_rows * n + target_nodes

    # Forward lock-step BFS.  Frontier pairs are packed as row*n + node;
    # writing the depth into the flat level matrix dedups within an
    # iteration for free (duplicate writes are idempotent) and the next
    # frontier is recovered with one ``levels == depth`` scan — both much
    # cheaper than hash/sort-based ``np.unique`` on the pair arrays.  A
    # group leaves the frontier once every one of its targets has a level;
    # the sweep ends when all groups are done or no frontier can grow, and
    # each group's levels are complete up to the depth at which it retired —
    # all the backward sweep needs.
    frontier = np.arange(batch, dtype=np.int64) * n + sources
    depth = 0
    while frontier.size:
        unfinished = np.zeros(batch, dtype=bool)
        unfinished[target_rows[levels[target_flat] < 0]] = True
        frontier = frontier[unfinished[frontier // n]]
        if frontier.size == 0:
            break
        depth += 1
        rows, _heads, neighbors = _gather_rows(csr, frontier // n, frontier % n)
        candidates = rows * n + neighbors
        candidates = candidates[levels[candidates] < 0]
        if candidates.size == 0:
            break
        levels[candidates] = depth
        frontier = np.flatnonzero(levels == depth)

    # Backward sweep over the level DAGs of every group together.  The
    # on-path pairs are marked in one flat bool matrix; the frontier at
    # level ``lvl`` (that level's targets plus the predecessors discovered
    # at ``lvl + 1``) falls out of an ``on_path & (levels == lvl)`` scan.
    target_levels = levels[target_flat]
    reached = target_levels > 0
    empty = np.empty(0, dtype=np.int64)
    node_parts = []
    degenerate = target_levels == 0  # target == source: node-only contribution
    if degenerate.any():
        node_parts.append(np.unique(sources[np.unique(target_rows[degenerate])]))
    if not reached.any():
        return (
            np.unique(np.concatenate(node_parts)) if node_parts else empty,
            empty,
            empty,
        )
    on_path = np.zeros(batch * int(n), dtype=bool)
    on_path[target_flat[reached]] = True
    edge_u_parts, edge_v_parts = [], []
    for lvl in range(int(target_levels[reached].max()), 0, -1):
        frontier = np.flatnonzero(on_path & (levels == lvl))
        rows, heads, neighbors = _gather_rows(csr, frontier // n, frontier % n)
        flat = rows * n + neighbors
        keep = levels[flat] == lvl - 1
        edge_u_parts.append(neighbors[keep])
        edge_v_parts.append(heads[keep])
        on_path[flat[keep]] = True
    node_parts.append(np.unique(np.flatnonzero(on_path) % n))
    return (
        np.unique(np.concatenate(node_parts)),
        np.concatenate(edge_u_parts),
        np.concatenate(edge_v_parts),
    )


def prime_csr_cache(graph: MatchGraph, snapshot: CSRAdjacency) -> CSRAdjacency:
    """Install ``snapshot`` as the cached CSR view of ``graph``.

    The bulk builder already holds the deduped edge arrays, so it can hand
    the walk engine a ready snapshot; any later mutation of the graph bumps
    its version and invalidates the primed cache as usual.
    """
    if snapshot.graph_version != graph.version:
        raise ValueError(
            "snapshot version does not match the graph "
            f"({snapshot.graph_version} != {graph.version})"
        )
    setattr(graph, _CACHE_ATTR, snapshot)
    return snapshot


def csr_adjacency(graph: MatchGraph) -> CSRAdjacency:
    """The CSR snapshot of ``graph``, cached against its structural version.

    The first call after any mutation rebuilds the snapshot; further calls
    return the cached object unchanged.
    """
    cached = getattr(graph, _CACHE_ATTR, None)
    if cached is not None and cached.graph_version == graph.version:
        return cached
    snapshot = build_csr(graph)
    setattr(graph, _CACHE_ATTR, snapshot)
    return snapshot
