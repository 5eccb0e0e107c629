"""Cosine similarity and the top-k kernel over embedding matrices.

Rankings are decoded by ``repro.retrieval``: ``DenseTopK`` runs
:func:`argtopk`, ``RetrievalResult.to_rankings`` maps the positions to ids.
"""

from __future__ import annotations

import numpy as np


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors (0 when either is zero)."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalise each row; zero rows stay zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def cosine_matrix(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity: (n_queries, n_candidates)."""
    if queries.ndim != 2 or candidates.ndim != 2:
        raise ValueError("cosine_matrix expects 2-D arrays")
    if queries.shape[1] != candidates.shape[1]:
        raise ValueError("query and candidate dimensionality differ")
    return normalize_rows(queries) @ normalize_rows(candidates).T


def argtopk(scores: np.ndarray, k: int) -> np.ndarray:
    """Vectorised top-k column indices per row, ordered by (-score, index).

    Equivalent to ``np.lexsort((np.arange(m), -row))[:k]`` applied to every
    row, but without a Python-level loop: an ``np.argpartition`` pass keeps
    only ``k`` entries per row and a lexsort over that narrow slice orders
    them.  Ties — including ties that straddle the partition boundary — are
    broken by ascending candidate index, so the result is deterministic and
    bit-identical to the reference per-row lexsort for finite scores.

    Returns an ``(n_rows, k)`` int array (``k`` clamped to the row width).
    """
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    n, m = scores.shape
    k = min(k, m)
    if k <= 0 or n == 0:
        return np.empty((n, 0), dtype=np.intp)
    if k == m or np.isnan(scores).any():
        # Full ordering: a stable sort on -scores keeps ties in index order.
        # Also the NaN path — argsort ranks NaNs last, matching the
        # reference lexsort, whereas the partition-boundary arithmetic
        # below would miscount rows whose boundary value is NaN.
        return np.argsort(-scores, axis=1, kind="stable")[:, :k]
    # kth largest value per row = the score at the partition boundary.
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1 : k]
    greater = scores > kth
    # Rows may have more than k entries tied at the boundary value; keep the
    # lowest-indexed ones so the selection matches the reference lexsort.
    equal = scores == kth
    need = k - greater.sum(axis=1, keepdims=True)
    equal &= np.cumsum(equal, axis=1) <= need
    # Exactly k selected per row; nonzero() is row-major so a reshape works.
    idx = np.nonzero(greater | equal)[1].reshape(n, k)
    top_scores = np.take_along_axis(scores, idx, axis=1)
    order = np.lexsort((idx, -top_scores), axis=1)
    return np.take_along_axis(idx, order, axis=1)

