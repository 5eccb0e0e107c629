"""Score fusion: the W-RW & S-BE combination of Figure 10.

The paper's best configuration averages the cosine scores of the
domain-specific graph embeddings (W-RW) with those of a frozen pre-trained
sentence encoder (S-BE); each score matrix is min-max normalised per query
row first so methods with different scales contribute equally.  Constant
rows — every candidate scored identically, so the row carries no ranking
signal — contribute exactly 0 to the fused matrix.

:func:`combine_scores` only fuses; the top-k of the fused matrix is
``DenseTopK.retrieve_from_scores``, which is how
``MetadataMatcher.match_combined`` ranks it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def minmax_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Min-max normalise each row to [0, 1]; constant rows map to all-0.

    A constant row has no ranking information, so it is defined to
    contribute 0 (not 0.5 or 1): ``matrix - low`` is identically zero and
    the guarded span division leaves it there.
    """
    matrix = np.asarray(matrix, dtype=float)
    low = matrix.min(axis=1, keepdims=True)
    span = matrix.max(axis=1, keepdims=True) - low
    span[span == 0.0] = 1.0
    return (matrix - low) / span


def combine_scores(
    matrices: Sequence[np.ndarray], weights: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Weighted average of per-row min-max normalised score matrices.

    ``weights`` must be finite and non-negative with a positive sum.
    """
    if not len(matrices):
        raise ValueError("at least one score matrix is required")
    shape = matrices[0].shape
    for m in matrices:
        if m.shape != shape:
            raise ValueError("all score matrices must have the same shape")
    if weights is None:
        weights = [1.0] * len(matrices)
    if len(weights) != len(matrices):
        raise ValueError("weights must match the number of matrices")
    weight_array = np.asarray(weights, dtype=float)
    if not np.isfinite(weight_array).all() or (weight_array < 0).any():
        raise ValueError(f"weights must be finite and non-negative, got {list(weights)}")
    if weight_array.sum() == 0.0:
        raise ValueError("weights must not sum to zero")
    total = np.zeros(shape, dtype=float)
    for matrix, weight in zip(matrices, weights):
        total += weight * minmax_normalize_rows(matrix)
    return total / sum(weights)
