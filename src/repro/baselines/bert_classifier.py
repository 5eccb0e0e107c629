"""L-BE* — multi-label classifier for the text-to-structured-text task.

The paper fine-tunes BERT-large as a multi-label classifier that maps an
audit document to taxonomy concepts.  The offline stand-in is a bag-of-
hashed-tokens MLP with one sigmoid output per concept, trained on the
annotated documents (5-fold cross validation is handled by the benchmark
harness).  As in the paper, it is competitive when most documents map to a
single concept (k=1) and degrades for documents with many gold concepts
because the training signal is thin.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.baselines.nn import MLPClassifier, TrainingConfig
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.utils.rng import stable_hash


class BertLargeClassifier:
    """Multi-label document → concept classifier over hashed token features."""

    name = "l-be*"

    def __init__(self, n_hash_features: int = 512, hidden_size: int = 64, seed=None):
        if n_hash_features < 16:
            raise ValueError("n_hash_features must be >= 16")
        self.n_hash_features = n_hash_features
        self.hidden_size = hidden_size
        self.seed = seed
        self.preprocessor = Preprocessor(PreprocessConfig(max_ngram=1))
        self._labels: List[str] = []
        self._label_index: Dict[str, int] = {}
        self._model: Optional[MLPClassifier] = None

    # ------------------------------------------------------------------
    def _featurize(self, text: str) -> np.ndarray:
        vector = np.zeros(self.n_hash_features)
        tokens = self.preprocessor.tokens(text)
        for token in tokens:
            vector[stable_hash(token, self.n_hash_features)] += 1.0
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector

    def fit(
        self,
        documents: Mapping[str, str],
        gold_concepts: Mapping[str, Set[str]],
        concept_ids: Sequence[str],
        train_documents: Optional[Sequence[str]] = None,
    ) -> "BertLargeClassifier":
        """Train on ``train_documents`` (default: every annotated document)."""
        self._labels = list(concept_ids)
        self._label_index = {label: i for i, label in enumerate(self._labels)}
        if train_documents is None:
            train_documents = [d for d in documents if d in gold_concepts]
        features = []
        targets = []
        for doc_id in train_documents:
            concepts = gold_concepts.get(doc_id)
            if not concepts:
                continue
            features.append(self._featurize(documents[doc_id]))
            row = np.zeros(len(self._labels))
            for concept in concepts:
                idx = self._label_index.get(concept)
                if idx is not None:
                    row[idx] = 1.0
            targets.append(row)
        if not features:
            raise ValueError("no annotated training documents were provided")
        self._model = MLPClassifier(
            hidden_size=self.hidden_size,
            n_outputs=len(self._labels),
            config=TrainingConfig(epochs=120, learning_rate=0.1),
            seed=self.seed,
        )
        self._model.fit(np.stack(features), np.stack(targets))
        return self

    # ------------------------------------------------------------------
    def rank(
        self,
        documents: Mapping[str, str],
        k: int = 10,
        document_ids: Optional[Sequence[str]] = None,
    ) -> RankingSet:
        """Rank the taxonomy concepts for every document."""
        if self._model is None:
            raise RuntimeError("classifier is not fitted")
        if document_ids is None:
            document_ids = list(documents)
        probs = np.empty((len(document_ids), len(self._labels)))
        for row, doc_id in enumerate(document_ids):
            probs[row] = self._model.predict_proba(self._featurize(documents[doc_id])[None, :])
        return DenseTopK().retrieve_from_scores(probs, k).to_rankings(
            document_ids, self._labels
        )
