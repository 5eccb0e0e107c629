"""D2VEC — Doc2Vec (DBOW) document embeddings trained on the corpora."""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.embeddings.doc2vec import Doc2Vec, Doc2VecConfig
from repro.embeddings.similarity import cosine_matrix
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.text.preprocess import PreprocessConfig, Preprocessor


class Doc2VecMatcher:
    """Train DBOW on both corpora jointly and match document vectors."""

    name = "d2vec"

    def __init__(self, config: Optional[Doc2VecConfig] = None, seed=None):
        self.config = config or Doc2VecConfig(epochs=15)
        self.seed = seed
        self.preprocessor = Preprocessor(PreprocessConfig(max_ngram=1))

    def rank(self, queries: Mapping[str, str], candidates: Mapping[str, str], k: int = 20) -> RankingSet:
        query_ids = list(queries)
        candidate_ids = list(candidates)
        documents = {}
        for query_id in query_ids:
            documents[f"q::{query_id}"] = self.preprocessor.tokens(queries[query_id])
        for candidate_id in candidate_ids:
            documents[f"c::{candidate_id}"] = self.preprocessor.tokens(candidates[candidate_id])
        model = Doc2Vec(self.config, seed=self.seed).train(documents)
        dim = self.config.vector_size

        def doc_vec(key: str) -> np.ndarray:
            vec = model.document_vector(key)
            return vec if vec is not None else np.zeros(dim)

        query_matrix = np.stack([doc_vec(f"q::{q}") for q in query_ids])
        candidate_matrix = np.stack([doc_vec(f"c::{c}") for c in candidate_ids])
        scores = cosine_matrix(query_matrix, candidate_matrix)
        return DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            query_ids, candidate_ids
        )
