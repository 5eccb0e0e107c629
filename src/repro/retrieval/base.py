"""Common contract of the retrieval backends (Section IV-B).

The paper's matching step ranks, for every query object, the candidate
objects of the other corpus by cosine similarity of their metadata-node
vectors.  Everything downstream (the pipeline, the baselines, the
benchmark harness) only needs *top-k neighbours per query* plus provenance
about how much work was done — that contract is what this module pins
down, so dense scoring and blocking are interchangeable.

A backend consumes raw (unnormalised) query/candidate embedding matrices
and returns a :class:`RetrievalResult`, one CSR block of per-query candidate
indices and scores ordered by (-score, index), plus :class:`RetrievalStats`
recording the number of (query, candidate) pairs actually scored.
:meth:`RetrievalResult.to_rankings` is the one decoder into rankings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.eval.ranking import Ranking, RankingSet


@dataclass
class RetrievalStats:
    """How much scoring work a retrieval run performed.

    ``scored_pairs`` counts the (query, candidate) pairs whose similarity
    was actually computed — for a dense backend that is the full cross
    product, for a blocked backend only the blocked (plus fallback) pairs.
    """

    backend: str
    n_queries: int
    n_candidates: int
    scored_pairs: int
    empty_blocks: int = 0

    @property
    def all_pairs(self) -> int:
        return self.n_queries * self.n_candidates

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the all-pairs comparisons avoided (0.0 for dense)."""
        if self.all_pairs == 0:
            return 0.0
        return 1.0 - self.scored_pairs / self.all_pairs


@dataclass
class RetrievalResult:
    """Per-query top-k neighbours as one CSR block of index/score arrays.

    Query ``q``'s candidate *positions* (into the candidate id list) are
    ``indices[offsets[q]:offsets[q + 1]]``, their scores at the same slots of
    ``scores``, ordered by decreasing score with ascending-index tie-break;
    rows may be shorter than ``k`` when a blocked backend found a smaller block.
    """

    indices: np.ndarray
    scores: np.ndarray
    offsets: np.ndarray
    stats: RetrievalStats

    def to_rankings(
        self, query_ids: Sequence[str], candidate_ids: Sequence[str]
    ) -> RankingSet:
        """Decode into a :class:`RankingSet`: one gather of the candidate ids, one
        ``tolist()`` each for ids and scores, one slice of the zipped pairs per query."""
        if len(query_ids) != len(self.offsets) - 1:
            raise ValueError("query_ids length must match the result rows")
        if len(candidate_ids) != self.stats.n_candidates:
            raise ValueError("candidate_ids length must match the scored candidates")
        ids = np.array(candidate_ids, dtype=object)[self.indices].tolist()
        pairs = zip(ids, self.scores.tolist())
        rankings = RankingSet()
        for query_id, length in zip(query_ids, np.diff(self.offsets).tolist()):
            rankings.add(Ranking(query_id=query_id, candidates=list(islice(pairs, length))))
        return rankings


@runtime_checkable
class RetrievalBackend(Protocol):
    """Anything that can produce top-k neighbours from embedding matrices."""

    name: str

    def retrieve(
        self,
        query_matrix: np.ndarray,
        candidate_matrix: np.ndarray,
        k: int,
        *,
        query_ids: Optional[Sequence[str]] = None,
        candidate_ids: Optional[Sequence[str]] = None,
    ) -> RetrievalResult: ...


@runtime_checkable
class QueryBlocker(Protocol):
    """Per-query candidate blocks, keyed by query id.

    Adapters in :mod:`repro.core.blocking` lift both ``TokenBlocking`` and
    ``MetadataNeighborhoodBlocking`` to this interface so
    :class:`~repro.retrieval.blocked.BlockedTopK` can use either.
    """

    def block_for(self, query_id: str) -> List[str]: ...


def validate_matrices(query_matrix: np.ndarray, candidate_matrix: np.ndarray) -> None:
    if query_matrix.ndim != 2 or candidate_matrix.ndim != 2:
        raise ValueError("query and candidate matrices must be 2-D")
    if query_matrix.shape[1] != candidate_matrix.shape[1]:
        raise ValueError("query and candidate dimensionality differ")


def prepare_matrix(matrix: np.ndarray, dtype: Optional[type]) -> np.ndarray:
    """L2-normalise rows and cast to ``dtype`` (``None`` keeps the input dtype).

    Integer inputs are promoted to float for the normalisation; floating
    inputs keep their precision unless ``dtype`` says otherwise.
    """
    from repro.embeddings.similarity import normalize_rows

    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.floating):
        matrix = matrix.astype(float)
    normalised = normalize_rows(matrix)
    if dtype is not None and normalised.dtype != np.dtype(dtype):
        normalised = normalised.astype(dtype)
    return normalised
