"""Sentence/document vectors from word vectors.

Longer texts are embedded as the (optionally weighted) mean of their token
vectors, following the approach the paper adopts for the W2VEC baseline and
the S-BE style encoder (De Boom et al. weighted aggregation).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

VectorLookup = Callable[[str], Optional[np.ndarray]]


def mean_pool(
    tokens: Sequence[str],
    lookup: VectorLookup,
    weights: Optional[Dict[str, float]] = None,
) -> Optional[np.ndarray]:
    """Weighted mean of the vectors of ``tokens``.

    Tokens without a vector are skipped; returns None when nothing is left.
    """
    vectors = []
    token_weights = []
    for token in tokens:
        vec = lookup(token)
        if vec is None:
            continue
        vectors.append(vec)
        token_weights.append(weights.get(token, 1.0) if weights else 1.0)
    if not vectors:
        return None
    stacked = np.stack(vectors)
    w = np.asarray(token_weights, dtype=float)
    if w.sum() == 0:
        return None
    return (stacked * w[:, None]).sum(axis=0) / w.sum()


@dataclass
class SentenceEncoder:
    """Encode token sequences using a word-vector lookup.

    Supports smooth-inverse-frequency (SIF) weighting: w(t) = a / (a + p(t))
    with p the corpus frequency of the token, which downweights ubiquitous
    tokens (the paper's Challenge 2 — ambiguous terms such as "audit").
    """

    lookup: VectorLookup
    sif_alpha: float = 1e-3
    use_sif: bool = True
    _frequencies: Dict[str, float] = field(default_factory=dict)

    def fit_frequencies(self, documents: Iterable[Sequence[str]]) -> "SentenceEncoder":
        """Estimate token frequencies from tokenised ``documents``."""
        counter: Counter = Counter()
        total = 0
        for tokens in documents:
            counter.update(tokens)
            total += len(tokens)
        if total:
            self._frequencies = {t: c / total for t, c in counter.items()}
        return self

    def _weights(self, tokens: Sequence[str]) -> Optional[Dict[str, float]]:
        if not self.use_sif or not self._frequencies:
            return None
        weights = {}
        for token in set(tokens):
            p = self._frequencies.get(token, 0.0)
            weights[token] = self.sif_alpha / (self.sif_alpha + p)
        return weights

    def encode(self, tokens: Sequence[str]) -> Optional[np.ndarray]:
        """Embed one token sequence."""
        return mean_pool(tokens, self.lookup, weights=self._weights(tokens))

    def encode_all(self, documents: Sequence[Sequence[str]], dim: Optional[int] = None) -> np.ndarray:
        """Embed many documents into a dense matrix.

        Documents with no known token are mapped to the zero vector (their
        cosine similarity with everything is 0, i.e. they rank last).  An
        explicit ``dim`` pins the output width — required for an all-OOV
        corpus slice, where no vector exists to infer it from — and raises
        when it disagrees with the vectors actually produced.
        """
        vectors: List[Optional[np.ndarray]] = [self.encode(doc) for doc in documents]
        found_dim = None
        for vec in vectors:
            if vec is not None:
                found_dim = vec.shape[0]
                break
        if dim is not None and found_dim is not None and dim != found_dim:
            raise ValueError(
                f"dim={dim} does not match the {found_dim}-dimensional vectors of the lookup"
            )
        out_dim = dim if dim is not None else found_dim
        if out_dim is None:
            raise ValueError("cannot infer embedding dimension: no document has known tokens")
        matrix = np.zeros((len(documents), out_dim), dtype=float)
        for i, vec in enumerate(vectors):
            if vec is not None:
                matrix[i] = vec
        return matrix
