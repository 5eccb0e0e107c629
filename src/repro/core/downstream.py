"""Downstream classification on top of the learned embeddings.

The paper states that "any downstream classifier can be trained using the
embeddings from our solution".  This module provides that adapter: an
:class:`EmbeddingPairClassifier` turns a fitted :class:`~repro.TDMatch`
pipeline into a supervised matcher by training a small model on features of
(query vector, candidate vector) pairs — useful when a handful of labelled
matches *is* available and a calibrated match probability is preferred over
a raw cosine ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.baselines.nn import LogisticRegression, TrainingConfig
from repro.baselines.supervised import sample_training_pairs
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.utils.rng import ensure_rng


def pair_features(query_vector: np.ndarray, candidate_vector: np.ndarray) -> np.ndarray:
    """Features of an embedding pair: cosine, L2 distance, elementwise stats."""
    qn = float(np.linalg.norm(query_vector))
    cn = float(np.linalg.norm(candidate_vector))
    cosine = float(query_vector @ candidate_vector / (qn * cn)) if qn > 0 and cn > 0 else 0.0
    difference = query_vector - candidate_vector
    hadamard = query_vector * candidate_vector
    return np.array(
        [
            cosine,
            float(np.linalg.norm(difference)),
            float(np.abs(difference).mean()),
            float(hadamard.mean()),
            float(hadamard.max()) if hadamard.size else 0.0,
            abs(qn - cn),
        ]
    )


@dataclass
class EmbeddingPairClassifier:
    """Binary match classifier over embedding-pair features.

    Parameters
    ----------
    query_vectors / candidate_vectors:
        Metadata-node vectors, e.g. ``pipeline.metadata_vectors("first")``
        and ``pipeline.metadata_vectors("second")``.
    negatives_per_positive:
        Random negative candidates sampled per annotated positive pair.
    seed:
        RNG seed for negative sampling.
    """

    query_vectors: Mapping[str, np.ndarray]
    candidate_vectors: Mapping[str, np.ndarray]
    negatives_per_positive: int = 4
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.query_vectors or not self.candidate_vectors:
            raise ValueError("query and candidate vectors must be non-empty")
        self._rng = ensure_rng(self.seed)
        self._model: Optional[LogisticRegression] = None

    # ------------------------------------------------------------------
    def fit(self, gold: Mapping[str, Set[str]]) -> "EmbeddingPairClassifier":
        """Train on the annotated matches in ``gold`` (query id → candidate ids)."""
        query_ids = [q for q in gold if q in self.query_vectors]
        features: List[np.ndarray] = []
        labels: List[float] = []
        for query_id, positive, negatives in sample_training_pairs(
            self._rng, self.candidate_vectors, gold, query_ids, self.negatives_per_positive
        ):
            query_vector = self.query_vectors[query_id]
            features += [
                pair_features(query_vector, self.candidate_vectors[c]) for c in [positive, *negatives]
            ]
            labels += [1.0] + [0.0] * len(negatives)
        if not features:
            raise ValueError("no training pairs could be built from the gold matches")
        self._model = LogisticRegression(TrainingConfig(epochs=80, learning_rate=0.3), seed=self.seed)
        self._model.fit(np.stack(features), np.asarray(labels))
        return self

    # ------------------------------------------------------------------
    def match_probability(self, query_id: str, candidate_id: str) -> float:
        """Calibrated probability that the pair is a match."""
        if self._model is None:
            raise RuntimeError("classifier is not fitted")
        query_vector = self.query_vectors.get(query_id)
        candidate_vector = self.candidate_vectors.get(candidate_id)
        if query_vector is None or candidate_vector is None:
            return 0.0
        features = pair_features(query_vector, candidate_vector)[None, :]
        return float(self._model.predict_proba(features)[0])

    def rank(self, k: int = 20, query_ids: Optional[Sequence[str]] = None) -> RankingSet:
        """Rank every candidate for the given queries by match probability."""
        if self._model is None:
            raise RuntimeError("classifier is not fitted")
        if query_ids is None:
            query_ids = list(self.query_vectors)
        candidate_ids = list(self.candidate_vectors)
        scores = np.empty((len(query_ids), len(candidate_ids)))
        for row, query_id in enumerate(query_ids):
            query_vector = self.query_vectors[query_id]
            scores[row] = self._model.predict_proba(
                np.stack([pair_features(query_vector, self.candidate_vectors[c]) for c in candidate_ids])
            )
        return DenseTopK(dtype=None).retrieve_from_scores(scores, k).to_rankings(
            query_ids, candidate_ids
        )
