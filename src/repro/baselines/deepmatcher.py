"""DEEP-M* — DeepMatcher-style supervised entity matcher.

DeepMatcher composes attribute-level similarity summaries with a small
neural network.  The stand-in keeps that structure: pair features are
computed per attribute of the structured side (when a schema is available)
and concatenated with the sequence-level features, then fed to a one-hidden-
layer MLP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.features import PairFeatureExtractor
from repro.baselines.nn import MLPClassifier, TrainingConfig
from repro.baselines.supervised import SupervisedPairMatcher
from repro.corpus.table import Table


class DeepMatcherBaseline(SupervisedPairMatcher):
    """MLP over concatenated sequence-level and attribute-level features."""

    name = "deep-m*"

    def __init__(
        self,
        table: Optional[Table] = None,
        attribute_columns: Optional[Sequence[str]] = None,
        extractor: Optional[PairFeatureExtractor] = None,
        negatives_per_positive: int = 4,
        hidden_size: int = 24,
        seed=None,
    ):
        """``table`` provides per-attribute values for the candidate rows."""
        super().__init__(extractor=extractor, negatives_per_positive=negatives_per_positive, seed=seed)
        self.table = table
        self.hidden_size = hidden_size
        if table is not None:
            columns = attribute_columns or table.column_names
            # Cap the number of attribute channels to keep features compact.
            self.attribute_columns: List[str] = list(columns)[:6]
        else:
            self.attribute_columns = []
        self._attribute_texts: Dict[str, Dict[str, str]] = {}
        if table is not None:
            for row in table:
                self._attribute_texts[row.row_id] = {
                    column: str(row.values.get(column) or "") for column in self.attribute_columns
                }

    # ------------------------------------------------------------------
    def _extra_texts(self) -> List[str]:
        return [v for row in self._attribute_texts.values() for v in row.values() if v]

    def _pair_features(self, query_text: str, candidate_id: str, candidate_text: str) -> np.ndarray:
        base = self.extractor.features(query_text, candidate_text)
        attribute_parts: List[np.ndarray] = []
        attributes = self._attribute_texts.get(candidate_id)
        if attributes:
            for column in self.attribute_columns:
                value = attributes.get(column, "")
                if value:
                    attribute_parts.append(self.extractor.features(query_text, value)[:4])
                else:
                    attribute_parts.append(np.zeros(4))
        if attribute_parts:
            return np.concatenate([base] + attribute_parts)
        return base

    def _build_model(self) -> MLPClassifier:
        return MLPClassifier(
            hidden_size=self.hidden_size,
            n_outputs=1,
            config=TrainingConfig(epochs=80, learning_rate=0.05),
            seed=self.seed,
        )
