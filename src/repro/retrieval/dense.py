"""Dense exact top-k retrieval with bounded memory (Section IV-B).

The paper scores every (query, candidate) pair by cosine similarity.  Doing
that naively materialises the full ``n_queries × n_candidates`` score
matrix; :class:`DenseTopK` normalises both matrices once, then streams the
queries in chunks of ``chunk_size`` rows so at most ``chunk_size ×
n_candidates`` scores exist at a time, reducing each chunk to its top-k
indices and scores immediately with :func:`repro.embeddings.similarity.topk`
and concatenating the chunks' blocks once into one CSR result.  Ties are
broken by candidate index, so results are deterministic and independent of
``chunk_size``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.embeddings.similarity import check_k, topk
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
        Floating dtype for the normalised matrices; ``None`` (default)
        keeps the input dtype.  ``np.float32`` halves memory and roughly
        doubles matmul throughput, at the cost of bit-compatibility with
        the float64 scores.
    """

    name = "dense"

    def __init__(self, chunk_size: int = 1024, dtype: Optional[type] = None):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.dtype = dtype

    def retrieve_from_scores(self, scores: np.ndarray, k: int) -> RetrievalResult:
        """Top-k over an already-computed score matrix (no matmul).

        Same ranking contract as :meth:`retrieve`; used by callers whose
        scores are not one cosine matmul (fused scores, the baselines).
        """
        return self._result([topk(scores, k)], scores.shape[1])

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
        queries = prepare_matrix(query_matrix, self.dtype)
        candidates_t = prepare_matrix(candidate_matrix, self.dtype).T
        # At least one (possibly empty) chunk, so no queries still make a block.
        blocks = [
            topk(queries[start : start + self.chunk_size] @ candidates_t, k)
            for start in range(0, max(len(queries), 1), self.chunk_size)
        ]
        return self._result(blocks, candidates_t.shape[1])

    def _result(self, blocks: list, n_candidates: int) -> RetrievalResult:
        """One CSR result from the :func:`topk` blocks of consecutive query rows."""
        indices, scores = zip(*blocks)
        n_queries = sum(map(len, indices))
        stats = RetrievalStats(
            backend=self.name,
            n_queries=n_queries,
            n_candidates=n_candidates,
            scored_pairs=n_queries * n_candidates,
        )
        return RetrievalResult(
            indices=np.concatenate(indices, axis=None),
            scores=np.concatenate(scores, axis=None),
            offsets=np.arange(n_queries + 1) * indices[0].shape[1],
            stats=stats,
        )
