"""TAPAS* — table-aware matcher (BERT pre-trained for tabular QA).

TAPAS encodes the question together with the flattened table, using column
and row embeddings.  The offline stand-in mirrors the table awareness: pair
features include, per column of the candidate row, the overlap between the
query and that column's value, plus the global sequence features; a logistic
scorer is trained on the annotated pairs.  Its qualitative behaviour matches
the paper's: reasonable on tables whose columns carry discriminative values,
weaker than the graph method overall.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines.features import PairFeatureExtractor
from repro.baselines.supervised import SupervisedPairMatcher
from repro.corpus.table import Table


class TapasMatcher(SupervisedPairMatcher):
    """Column-aware supervised matcher for text-to-data tasks."""

    name = "tapas*"

    def __init__(
        self,
        table: Table,
        extractor: Optional[PairFeatureExtractor] = None,
        negatives_per_positive: int = 4,
        max_columns: int = 8,
        seed=None,
    ):
        super().__init__(extractor=extractor, negatives_per_positive=negatives_per_positive, seed=seed)
        self.table = table
        self.columns: List[str] = table.column_names[:max_columns]
        self._column_values: Dict[str, Dict[str, str]] = {}
        for row in table:
            self._column_values[row.row_id] = {
                column: str(row.values.get(column) or "") for column in self.columns
            }

    def _extra_texts(self) -> List[str]:
        return [v for row in self._column_values.values() for v in row.values() if v]

    def _pair_features(self, query_text: str, candidate_id: str, candidate_text: str) -> np.ndarray:
        base = self.extractor.features(query_text, candidate_text)
        column_features: List[float] = []
        values = self._column_values.get(candidate_id, {})
        for column in self.columns:
            value = values.get(column, "")
            if value:
                feats = self.extractor.features(query_text, value)
                # token containment of the column value in the query
                column_features.append(float(feats[3]))
            else:
                column_features.append(0.0)
        return np.concatenate([base, np.asarray(column_features)])
