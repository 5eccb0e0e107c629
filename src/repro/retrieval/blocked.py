"""Blocked top-k retrieval: score only the blocked pairs (paper conclusion).

The paper names blocking as the route to scaling the matching step: a cheap
blocking pass restricts each query to a small candidate block, and only
those pairs are scored with the embeddings.  :class:`BlockedTopK` realises
that saving: it never computes the all-pairs score matrix, only the
blocked candidate rows via index gather (``candidates[block_idx] @
queries.T``).  ``stats.scored_pairs`` is therefore an exact count of the
similarity computations performed, and the companion benchmark in
``benchmarks/bench_fig8_scaling.py`` shows the wall-clock win tracking the
reduction ratio.

Queries whose blocks contain exactly the same candidates (common under
graph-neighbourhood or cluster-style blocking) are grouped and scored with
one gather and one BLAS matmul per distinct block, so the per-query Python
overhead does not swallow the skipped FLOPs at scale.

Any :class:`~repro.retrieval.base.QueryBlocker` works, which makes
``MetadataNeighborhoodBlocking`` (graph-native blocking) usable through the
same interface as ``TokenBlocking`` via the adapters in
:mod:`repro.core.blocking`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import argtopk
from repro.retrieval.base import (
    QueryBlocker,
    RetrievalResult,
    RetrievalStats,
    prepare_matrix,
    validate_matrices,
)


class BlockedTopK:
    """Top-k over per-query candidate blocks, scoring only blocked pairs.

    Parameters
    ----------
    blocker:
        A :class:`~repro.retrieval.base.QueryBlocker`; ``block_for(qid)``
        returns the candidate ids in the query's block (unknown ids are
        ignored, duplicates deduplicated).
    fallback_to_full:
        When a block is empty, score the query against *all* candidates
        (dense fallback) instead of returning an empty ranking.  Fallback
        queries contribute ``n_candidates`` to ``scored_pairs``.
    dtype:
        Floating dtype for the normalised matrices; ``None`` keeps the
        input dtype.
    chunk_size:
        Row bound per matmul within one block group, capping peak memory
        at ``chunk_size × block_size`` scores.
    """

    name = "blocked"

    def __init__(
        self,
        blocker: QueryBlocker,
        fallback_to_full: bool = True,
        dtype: Optional[type] = None,
        chunk_size: int = 1024,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.blocker = blocker
        self.fallback_to_full = fallback_to_full
        self.dtype = dtype
        self.chunk_size = chunk_size

    def retrieve(
        self,
        query_matrix: np.ndarray,
        candidate_matrix: np.ndarray,
        k: int,
        *,
        query_ids: Optional[Sequence[str]] = None,
        candidate_ids: Optional[Sequence[str]] = None,
    ) -> RetrievalResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        validate_matrices(query_matrix, candidate_matrix)
        if query_ids is None or candidate_ids is None:
            raise ValueError("BlockedTopK needs query_ids and candidate_ids")
        if len(query_ids) != query_matrix.shape[0]:
            raise ValueError("query_ids length must match query_matrix rows")
        if len(candidate_ids) != candidate_matrix.shape[0]:
            raise ValueError("candidate_ids length must match candidate_matrix rows")
        queries = prepare_matrix(query_matrix, self.dtype)
        candidates = prepare_matrix(candidate_matrix, self.dtype)
        candidate_pos = {cid: i for i, cid in enumerate(candidate_ids)}
        n_queries = len(query_ids)
        n_candidates = candidates.shape[0]
        empty = np.empty(0, dtype=candidates.dtype)
        indices: List[Optional[np.ndarray]] = [None] * n_queries
        scores: List[np.ndarray] = [empty] * n_queries
        empty_blocks = 0

        # Group queries sharing an identical block: one gather + one matmul
        # per distinct block instead of per query.  ``None`` keys the dense
        # fallback group (empty blocks with fallback enabled).
        groups: Dict[Optional[bytes], Tuple[Optional[np.ndarray], List[int]]] = {}
        for row, query_id in enumerate(query_ids):
            block = self.blocker.block_for(query_id)
            # unique() sorts ascending (and dedups), so within-block
            # positions map monotonically to global candidate indices and
            # argtopk's index tie-break stays correct — blockers may emit
            # ids in any order.
            try:
                # C-level translation; falls back to filtering only when a
                # blocker emits ids outside the candidate set.
                translated = np.fromiter(
                    map(candidate_pos.__getitem__, block), dtype=np.intp, count=len(block)
                )
            except KeyError:
                translated = np.fromiter(
                    (candidate_pos[cid] for cid in block if cid in candidate_pos),
                    dtype=np.intp,
                )
            block_idx = np.unique(translated)
            if block_idx.size == 0:
                empty_blocks += 1
                if not self.fallback_to_full:
                    indices[row] = np.empty(0, dtype=np.intp)
                    continue
                key: Optional[bytes] = None
            else:
                key = block_idx.tobytes()
            group = groups.get(key)
            if group is None:
                groups[key] = (None if key is None else block_idx, [row])
            else:
                group[1].append(row)

        scored_pairs = 0
        for block_idx, rows in groups.values():
            if block_idx is None:
                block = candidates
                global_idx = None
            else:
                block = candidates[block_idx]
                global_idx = block_idx
            scored_pairs += len(rows) * block.shape[0]
            row_arr = np.asarray(rows, dtype=np.intp)
            for start in range(0, row_arr.size, self.chunk_size):
                chunk_rows = row_arr[start : start + self.chunk_size]
                chunk_scores = queries[chunk_rows] @ block.T
                top = argtopk(chunk_scores, k)
                top_scores = np.take_along_axis(chunk_scores, top, axis=1)
                if global_idx is not None:
                    top = global_idx[top]
                for row, idx_row, score_row in zip(chunk_rows, top, top_scores):
                    indices[row] = idx_row
                    scores[row] = score_row

        stats = RetrievalStats(
            backend=self.name,
            n_queries=n_queries,
            n_candidates=n_candidates,
            scored_pairs=scored_pairs,
            empty_blocks=empty_blocks,
        )
        return RetrievalResult(indices=indices, scores=scores, stats=stats)
