"""Sharded multi-source DAG-union sweeps for graph compression.

MSP/SSP compression groups sampled pairs into a ``{source: targets}``
mapping and runs one batched BFS + backward sweep over the sorted sources
(:func:`repro.graph.csr.multi_source_dag_union`).  That sweep is
embarrassingly parallel across source groups: a multi-shard plan splits
the sorted source list into contiguous shards, runs each as one
:func:`_dag_union_task` against shared-memory views of the CSR arrays (in
this process at ``num_workers <= 1``, in worker processes above that), and
concatenates the per-shard results in shard order.

Pair sampling happens *before* this sweep (serially, on the stage's RNG
stream), and the compressed graph is a node mask plus the deduped edge
pairs (:meth:`~repro.graph.graph.MatchGraph.keep`), so it is bit-identical
to the serial sweep at **any** shard and worker count — the strongest
case of the parallel layer's determinism contract.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.csr import multi_source_dag_union
from repro.parallel.config import ParallelConfig
from repro.parallel.shm import ShmArena, SharedArray, WorkerPool, attached
from repro.parallel.walks import shard_ranges


class _CSRView:
    """The two graph arrays :func:`multi_source_dag_union` traverses."""

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices


def _dag_union_task(
    indptr_d: SharedArray,
    indices_d: SharedArray,
    sources: np.ndarray,
    targets_list: List[np.ndarray],
):
    """One shard's union sweep; results travel back as plain arrays."""
    with attached(indptr_d, indices_d) as (indptr, indices):
        nodes, edge_u, edge_v = multi_source_dag_union(
            _CSRView(indptr, indices), sources, targets_list
        )
        return np.array(nodes), np.array(edge_u), np.array(edge_v)


def parallel_grouped_dag_union(
    graph,
    sources: np.ndarray,
    targets_list: List[np.ndarray],
    parallel: ParallelConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grouped DAG-union sweep as one task per non-empty source shard.

    ``sources`` are the sorted int64 source ids and ``targets_list[i]`` the
    targets of ``sources[i]``.  Returns concatenated ``(nodes, edge_u,
    edge_v)`` id arrays (duplicates allowed, exactly like the serial sweep —
    the caller dedups).
    """
    with ShmArena() as arena, WorkerPool(parallel, label="compression") as pool:
        indptr_d = arena.share(graph.indptr)
        indices_d = arena.share(graph.indices)
        results = pool.run(
            _dag_union_task,
            [
                (indptr_d, indices_d, sources[lo:hi], targets_list[lo:hi])
                for lo, hi in shard_ranges(len(sources), parallel.shards)
                if hi > lo
            ],
        )
    if not results:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(np.concatenate(parts) for parts in zip(*results))
