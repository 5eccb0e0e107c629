"""Reference top-k: the row selection and ordering before ``topk``.

:func:`argtopk` is how the library once selected each row's top k: a
partition of a negated copy (``np.partition`` copying it again), a ``>``
mask plus an ``==`` mask with an ``int64`` cumulative sum over the whole
block for the lowest-index tie-break, ``np.nonzero(...)[1]``, and a
``lexsort`` of the selected ``(index, -score)`` pairs.  The retrieval
backends then gathered the scores with ``take_along_axis``;
:func:`topk_reference` returns both, so
:func:`repro.embeddings.similarity.topk` must equal it byte for byte.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def argtopk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k column indices per row, ordered by (-score, index).

    Equivalent to ``np.lexsort((np.arange(m), -row))[:k]`` applied to every
    row.  Returns an ``(n_rows, k)`` int array (``k`` clamped to the row
    width).
    """
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    n, m = scores.shape
    k = min(k, m)
    if k <= 0 or n == 0:
        return np.empty((n, 0), dtype=np.intp)
    if k == m or np.isnan(scores).any():
        # Full ordering: a stable sort on -scores keeps ties in index order;
        # argsort ranks NaNs last, like the reference lexsort.
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


def topk_reference(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, scores)`` of :func:`argtopk`, scores gathered per row."""
    idx = argtopk(scores, k)
    return idx, np.take_along_axis(scores, idx, axis=1)
