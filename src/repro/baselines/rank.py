"""RANK* — supervised pairwise learning-to-rank (Shaar et al.).

The paper's RANK baseline learns to rank verified claims with a pairwise
loss over (positive, negative) candidate pairs for the same query.  The
stand-in keeps the pairwise objective: for every training query we build
(positive, negative) feature-difference samples and fit a logistic model on
the differences (RankNet with a linear scorer).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.features import PairFeatureExtractor
from repro.baselines.nn import LogisticRegression, TrainingConfig
from repro.baselines.supervised import SupervisedPairMatcher


class RankMatcher(SupervisedPairMatcher):
    """Pairwise learning-to-rank over pair features."""

    name = "rank*"

    def __init__(self, extractor: Optional[PairFeatureExtractor] = None, negatives_per_positive: int = 6, seed=None):
        super().__init__(extractor=extractor, negatives_per_positive=negatives_per_positive, seed=seed)

    def _training_set(
        self, samples: List[Tuple[np.ndarray, List[np.ndarray]]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        # RankNet-style: P(pos > neg) = sigmoid(w · (f_pos - f_neg)); train a
        # logistic model where every difference sample has label 1 and its
        # negation has label 0 to keep the decision boundary through zero.
        differences = [positive - negative for positive, negatives in samples for negative in negatives]
        if not differences:
            raise ValueError("no pairwise training samples could be built")
        diff_matrix = np.stack(differences)
        features = np.vstack([diff_matrix, -diff_matrix])
        labels = np.concatenate([np.ones(len(differences)), np.zeros(len(differences))])
        return features, labels

    def _build_model(self) -> LogisticRegression:
        return LogisticRegression(TrainingConfig(epochs=80, learning_rate=0.2), seed=self.seed)

    def _score_model(self, features: np.ndarray) -> np.ndarray:
        return self._model.decision_function(features)
