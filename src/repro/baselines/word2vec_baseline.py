"""W2VEC — Word2Vec trained on the documents themselves (no graph).

The paper's training-based unsupervised baseline: embeddings are learned on
the raw document texts (tuples serialized with ``[COL]``/``[VAL]``), longer
texts are embedded as the mean of their token vectors, and matching uses
cosine similarity.  The contrast with W-RW isolates the contribution of the
graph + random walks.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.embeddings.sentence import SentenceEncoder
from repro.embeddings.similarity import cosine_matrix
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.text.preprocess import PreprocessConfig, Preprocessor


class Word2VecMatcher:
    """Train Word2Vec on the corpus texts and match by mean-pooled cosine."""

    name = "w2vec"

    def __init__(self, config: Optional[Word2VecConfig] = None, seed=None):
        self.config = config or Word2VecConfig(window=5, epochs=5)
        self.seed = seed
        self.preprocessor = Preprocessor(PreprocessConfig(max_ngram=1))

    def rank(self, queries: Mapping[str, str], candidates: Mapping[str, str], k: int = 20) -> RankingSet:
        query_ids = list(queries)
        candidate_ids = list(candidates)
        query_tokens = [self.preprocessor.tokens(queries[q]) for q in query_ids]
        candidate_tokens = [self.preprocessor.tokens(candidates[c]) for c in candidate_ids]
        corpus = [t for t in query_tokens + candidate_tokens if t]
        model = Word2Vec(self.config, seed=self.seed).train(corpus)
        encoder = SentenceEncoder(lookup=model.vector).fit_frequencies(corpus)
        query_matrix = encoder.encode_all(query_tokens, dim=self.config.vector_size)
        candidate_matrix = encoder.encode_all(candidate_tokens, dim=self.config.vector_size)
        scores = cosine_matrix(query_matrix, candidate_matrix)
        return DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            query_ids, candidate_ids
        )
