"""Unsupervised matching of metadata nodes (Section IV-B).

Given the metadata-node vectors of the two corpora as matrices (one row per
object), the matcher ranks, for every query object, the candidate objects
of the other corpus by cosine similarity, through a
:class:`~repro.retrieval.base.RetrievalBackend` (exact dense top-k by
default).  :meth:`MetadataMatcher.match_combined` ranks the fusion of those
scores with a pre-trained sentence encoder's (Figure 10).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import cosine_matrix
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK, RetrievalStats, combine_scores
from repro.retrieval.base import RetrievalBackend


class MetadataMatcher:
    """Ranks candidate objects for query objects by cosine similarity.

    ``query_matrix`` row ``i`` is the vector of ``query_ids[i]`` (likewise
    for the candidates); the matrices are used as given.  A zero row (an
    object without a vector) scores 0 against every candidate.
    """

    def __init__(
        self,
        query_ids: Sequence[str],
        query_matrix: np.ndarray,
        candidate_ids: Sequence[str],
        candidate_matrix: np.ndarray,
    ):
        if not len(query_ids) or not len(candidate_ids):
            raise ValueError("a matcher needs at least one query and one candidate")
        if (len(query_matrix), len(candidate_matrix)) != (len(query_ids), len(candidate_ids)):
            raise ValueError("each matrix needs one row per id")
        if query_matrix.shape[1] != candidate_matrix.shape[1]:
            raise ValueError("query and candidate dimensionality differ")
        self.query_ids: List[str] = list(query_ids)
        self.candidate_ids: List[str] = list(candidate_ids)
        self.query_matrix = query_matrix
        self.candidate_matrix = candidate_matrix

    def score_matrix(self) -> np.ndarray:
        """Cosine similarity matrix (queries × candidates); the top-k path
        never materialises it."""
        return cosine_matrix(self.query_matrix, self.candidate_matrix)

    def match_with_stats(
        self, k: int = 20, backend: Optional[RetrievalBackend] = None
    ) -> Tuple[RankingSet, RetrievalStats]:
        """Top-k ranking per query plus the backend's work statistics;
        ``backend=None`` is exact dense top-k in the matrices' own precision."""
        backend = backend if backend is not None else DenseTopK()
        result = backend.retrieve(
            self.query_matrix,
            self.candidate_matrix,
            k,
            query_ids=self.query_ids,
            candidate_ids=self.candidate_ids,
        )
        return result.to_rankings(self.query_ids, self.candidate_ids), result.stats

    def match(self, k: int = 20) -> RankingSet:
        """Top-k ranking per query by cosine similarity."""
        return self.match_with_stats(k=k)[0]

    def match_combined(
        self,
        other_scores: np.ndarray,
        k: int = 20,
        weights: Optional[Sequence[float]] = None,
    ) -> RankingSet:
        """Top-k of the :func:`~repro.retrieval.combined.combine_scores`
        fusion of this matcher's cosine scores and ``other_scores``."""
        if other_scores.shape != (len(self.query_ids), len(self.candidate_ids)):
            raise ValueError("score matrix shape does not match query/candidate ids")
        fused = combine_scores([self.score_matrix(), other_scores], weights=weights)
        result = DenseTopK().retrieve_from_scores(fused, k)
        return result.to_rankings(self.query_ids, self.candidate_ids)
