"""Frontier-array BFS over the CSR arrays of a :class:`~repro.graph.graph.MatchGraph`.

MSP and SSP compression (Algorithm 3) take the union of all shortest
paths between sampled node pairs, and incremental fit collects the nodes a
few hops around the new ones.  The primitives here
do this with numpy frontier arrays over ``indptr`` and ``indices``: one
gather per BFS level instead of a Python loop per node, and no path is
ever materialised.  Each takes a ``graph`` argument, which may be a
:class:`~repro.graph.graph.MatchGraph` or any object with its two arrays
(:mod:`repro.parallel.compression` passes shared-memory views).
"""

from __future__ import annotations

import numpy as np


def _gather(graph, nodes: np.ndarray):
    """Row lengths and concatenated CSR rows of ``nodes``.

    One ``np.repeat`` + one fancy index replace a Python loop over
    per-node slices.
    """
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return counts, np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return counts, graph.indices[positions].astype(np.int64)


def gather_neighbors(graph, nodes: np.ndarray):
    """Concatenated neighbour rows of ``nodes``, with their row owners.

    Returns ``(heads, neighbors)`` where ``neighbors`` is the concatenation
    of the CSR rows of ``nodes`` and ``heads[i]`` is the node whose row
    produced ``neighbors[i]``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    counts, neighbors = _gather(graph, nodes)
    return np.repeat(nodes, counts), neighbors


def bfs_levels(
    graph,
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
    levels = np.full(graph.indptr.size - 1, -1, dtype=np.int32)
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
        _heads, neighbors = gather_neighbors(graph, frontier)
        neighbors = neighbors[levels[neighbors] < 0]
        if neighbors.size == 0:
            break
        frontier = np.unique(neighbors)
        levels[frontier] = depth
    return levels


def shortest_path_dag_union(
    graph,
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
    and of its DAG edges (unique within one call; edges accumulated
    across sources may repeat, which :meth:`MatchGraph.keep
    <repro.graph.graph.MatchGraph.keep>` drops).
    """
    targets = np.unique(np.asarray(targets, dtype=np.int64))
    if levels is None:
        levels = bfs_levels(graph, source, targets, stop="all")
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
        heads, neighbors = gather_neighbors(graph, frontier)
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
    graph,
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
    groups.  Edges are unique within a group but may repeat across groups,
    which :meth:`MatchGraph.keep <repro.graph.graph.MatchGraph.keep>` drops.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = graph.indptr.size - 1
    total = len(sources)
    chunk = max(1, min(total, max_state_entries // max(1, n)))
    node_chunks: list = []
    edge_u_chunks: list = []
    edge_v_chunks: list = []
    for start in range(0, total, chunk):
        nodes, edge_u, edge_v = _dag_union_batch(
            graph, sources[start : start + chunk], targets_list[start : start + chunk]
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


def _gather_rows(graph, rows: np.ndarray, nodes: np.ndarray):
    """CSR row gather for (group row, node) frontier pairs."""
    counts, neighbors = _gather(graph, nodes)
    return np.repeat(rows, counts), np.repeat(nodes, counts), neighbors


def _dag_union_batch(graph, sources: np.ndarray, targets_list):
    n = np.int64(graph.indptr.size - 1)
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
        rows, _heads, neighbors = _gather_rows(graph, frontier // n, frontier % n)
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
        rows, heads, neighbors = _gather_rows(graph, frontier // n, frontier % n)
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
