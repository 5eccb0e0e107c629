"""Cosine similarity and the top-k kernel over embedding matrices.

Rankings are decoded by ``repro.retrieval``: every backend selects with
:func:`topk`, ``RetrievalResult.to_rankings`` maps the positions to ids.
"""

from __future__ import annotations

from typing import Tuple

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


def check_k(k: int) -> int:
    """``k`` as an int: a bool, float or other non-integer raises TypeError, k < 1 ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"k must be an integer, not {type(k).__name__}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(k)


def topk(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k column indices per row and their scores, ordered by (-score, index).

    Equals ``np.lexsort((np.arange(m), -row))[:k]`` on every row: an in-place
    partition of one negated copy gives each row's k-th score, a ``>=`` mask
    selects, rows with surplus boundary ties keep the lowest-indexed ones, and
    a stable argsort orders the ``(n, k)`` slice.  Scores are gathered, never
    recomputed.  Returns two ``(n_rows, k)`` arrays, ``k`` clamped to ``m``.
    """
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    n, m = scores.shape
    k = min(check_k(k), m)
    if k == m or np.isnan(scores).any():
        # Stable: ties keep index order, NaN ranks last (the mask would miscount).
        idx = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return idx, np.take_along_axis(scores, idx, axis=1)
    kth = -scores  # one negated copy, partitioned in place
    kth.partition(k - 1, axis=1)
    kth = -kth[:, k - 1 : k]
    selected = scores >= kth
    flat = np.flatnonzero(selected)
    if flat.size > n * k:
        # Rows tied at their k-th score past k entries keep the first ties.
        surplus = np.flatnonzero(np.count_nonzero(selected, axis=1) > k)
        rows, edge = scores[surplus], kth[surplus]
        greater, equal = rows > edge, rows == edge
        need = k - np.count_nonzero(greater, axis=1, keepdims=True)
        selected[surplus] = greater | (equal & (np.cumsum(equal, axis=1) <= need))
        flat = np.flatnonzero(selected)
    del selected
    # Row-major, so each row's columns ascend and a stable sort keeps them.
    top = np.take(scores, flat).reshape(n, k)
    order = np.argsort(-top, axis=1, kind="stable")
    order += np.arange(0, n * k, k)[:, None]
    idx = np.take(flat, order)
    del flat
    idx -= np.arange(0, n * m, m)[:, None]
    return idx, np.take(top, order)
