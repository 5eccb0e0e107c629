"""Dense exact top-k retrieval with bounded memory (Section IV-B).

The paper scores every (query, candidate) pair by cosine similarity.  Doing
that naively materialises the full ``n_queries × n_candidates`` score
matrix; :class:`DenseTopK` normalises both matrices once, then streams the
queries in chunks of ``chunk_size`` rows so at most ``chunk_size ×
n_candidates`` scores exist at a time, reducing each chunk to its top-k
immediately with the vectorised ``argpartition`` kernel
(:func:`repro.embeddings.similarity.argtopk`).  Ties are broken by
candidate index, so results are deterministic and independent of
``chunk_size``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.embeddings.similarity import argtopk
from repro.retrieval.base import (
    RetrievalResult,
    RetrievalStats,
    prepare_matrix,
    validate_matrices,
)


class DenseTopK:
    """Exact all-pairs cosine top-k, chunked for bounded memory.

    Parameters
    ----------
    chunk_size:
        Number of query rows scored per matmul; bounds peak memory at
        ``chunk_size × n_candidates`` scores.
    dtype:
        Floating dtype for the normalised matrices.  ``np.float32``
        (default) halves memory and roughly doubles matmul throughput;
        pass ``None`` to keep the input dtype (the pipeline does this to
        stay bit-compatible with the reference float64 scores).
    """

    name = "dense"

    def __init__(self, chunk_size: int = 1024, dtype: Optional[type] = np.float32):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.dtype = dtype

    def retrieve_from_scores(self, scores: np.ndarray, k: int) -> RetrievalResult:
        """Top-k over an already-computed score matrix (no matmul).

        Same ranking contract as :meth:`retrieve`; used by callers whose
        scores are not one cosine matmul (fused scores, the baselines).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        top = argtopk(scores, k)
        n_queries, n_candidates = scores.shape
        stats = RetrievalStats(
            backend=self.name,
            n_queries=n_queries,
            n_candidates=n_candidates,
            scored_pairs=n_queries * n_candidates,
        )
        return RetrievalResult(
            indices=list(top),
            scores=list(np.take_along_axis(scores, top, axis=1)),
            stats=stats,
        )

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
        queries = prepare_matrix(query_matrix, self.dtype)
        candidates_t = prepare_matrix(candidate_matrix, self.dtype).T
        n_queries = queries.shape[0]
        n_candidates = candidates_t.shape[1]
        indices: List[np.ndarray] = []
        scores: List[np.ndarray] = []
        for start in range(0, n_queries, self.chunk_size):
            chunk = queries[start : start + self.chunk_size] @ candidates_t
            top = argtopk(chunk, k)
            top_scores = np.take_along_axis(chunk, top, axis=1)
            indices.extend(top)
            scores.extend(top_scores)
        stats = RetrievalStats(
            backend=self.name,
            n_queries=n_queries,
            n_candidates=n_candidates,
            scored_pairs=n_queries * n_candidates,
        )
        return RetrievalResult(indices=indices, scores=scores, stats=stats)
