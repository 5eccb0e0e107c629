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

Each distinct block (by its id sequence) is translated to candidate
positions once per call, and queries whose blocks contain exactly the same
candidates (common under graph-neighbourhood or cluster-style blocking) are
grouped and scored with one gather and one BLAS matmul per distinct block,
so the per-query Python overhead does not swallow the skipped FLOPs at
scale.  The ragged per-query rows are concatenated once into the result's
CSR block.

Any :class:`~repro.retrieval.base.QueryBlocker` works, which makes
``MetadataNeighborhoodBlocking`` (graph-native blocking) usable through the
same interface as ``TokenBlocking`` via the adapters in
:mod:`repro.core.blocking`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import check_k, topk
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
        ignored, duplicates deduplicated).  A query whose block is empty
        is scored against *all* candidates (dense fallback) and contributes
        ``n_candidates`` to ``scored_pairs``.
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
        dtype: Optional[type] = None,
        chunk_size: int = 1024,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.blocker = blocker
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
        check_k(k)
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
        no_indices = np.empty(0, dtype=np.intp)
        no_scores = np.empty(0, dtype=candidates.dtype)
        index_rows: List[np.ndarray] = [no_indices] * n_queries
        score_rows: List[np.ndarray] = [no_scores] * n_queries
        empty_blocks = 0

        # Translate each distinct block once, keyed by its id tuple, then
        # group queries sharing an identical block: one gather + one matmul
        # per distinct block instead of per query.  ``None`` keys the dense
        # fallback group (the empty blocks).
        translated: Dict[Tuple[str, ...], Tuple[bytes, np.ndarray]] = {}
        groups: Dict[Optional[bytes], Tuple[Optional[np.ndarray], List[int]]] = {}
        for row, query_id in enumerate(query_ids):
            block = tuple(self.blocker.block_for(query_id))
            entry = translated.get(block)
            if entry is None:
                # unique() sorts ascending (and dedups), so within-block
                # positions map monotonically to global candidate indices
                # and topk's index tie-break stays correct — blockers may
                # emit ids in any order.  Unknown ids map to -1 and drop.
                positions = np.fromiter(
                    map(candidate_pos.get, block, repeat(-1)), dtype=np.intp, count=len(block)
                )
                block_idx = np.unique(positions[positions >= 0])
                entry = translated[block] = (block_idx.tobytes(), block_idx)
            key, block_idx = entry
            if block_idx.size == 0:
                empty_blocks += 1
                key, block_idx = None, None
            groups.setdefault(key, (block_idx, []))[1].append(row)

        scored_pairs = 0
        for block_idx, rows in groups.values():
            block = candidates if block_idx is None else candidates[block_idx]
            scored_pairs += len(rows) * block.shape[0]
            row_arr = np.asarray(rows, dtype=np.intp)
            for start in range(0, row_arr.size, self.chunk_size):
                chunk_rows = row_arr[start : start + self.chunk_size]
                top, top_scores = topk(queries[chunk_rows] @ block.T, k)
                if block_idx is not None:
                    top = block_idx[top]
                for row, idx_row, score_row in zip(chunk_rows.tolist(), top, top_scores):
                    index_rows[row] = idx_row
                    score_rows[row] = score_row

        stats = RetrievalStats(
            backend=self.name,
            n_queries=n_queries,
            n_candidates=len(candidates),
            scored_pairs=scored_pairs,
            empty_blocks=empty_blocks,
        )
        return RetrievalResult(
            indices=np.concatenate([no_indices, *index_rows]),
            scores=np.concatenate([no_scores, *score_rows]),
            offsets=np.cumsum([0, *map(len, index_rows)]),
            stats=stats,
        )
