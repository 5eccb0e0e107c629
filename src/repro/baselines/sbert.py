"""S-BE — the SentenceBERT-style unsupervised baseline.

Offline stand-in for SentenceBERT: a *frozen* general-domain word-embedding
table (:class:`~repro.embeddings.pretrained.PretrainedEmbeddings`) with
SIF-weighted mean pooling.  It reproduces the property the paper analyses:
strong on generic English sentences (STS, Snopes, Politifact), weak when the
vocabulary is domain specific (IMDb ids, audit jargon, CoronaCheck country
statistics), because those tokens are outside its general vocabulary.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.embeddings.pretrained import PretrainedEmbeddings, build_synthetic_pretrained
from repro.embeddings.sentence import SentenceEncoder
from repro.embeddings.similarity import cosine_matrix
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.text.preprocess import PreprocessConfig, Preprocessor


class SbertEncoder:
    """Sentence encoder over a frozen pre-trained embedding table."""

    def __init__(self, pretrained: Optional[PretrainedEmbeddings] = None):
        self.pretrained = pretrained or build_synthetic_pretrained()
        # SentenceBERT-style models do not stem; keep raw-ish tokens.
        self.preprocessor = Preprocessor(PreprocessConfig(apply_stemming=False, max_ngram=1))
        self._sentence_encoder = SentenceEncoder(lookup=self.pretrained.vector)

    def fit_frequencies(self, texts) -> "SbertEncoder":
        self._sentence_encoder.fit_frequencies([self.preprocessor.tokens(t) for t in texts])
        return self

    def encode(self, tokens) -> Optional[np.ndarray]:
        """Encode an already tokenised text (PairFeatureExtractor interface)."""
        return self._sentence_encoder.encode(list(tokens))

    def encode_texts(self, texts) -> np.ndarray:
        token_lists = [self.preprocessor.tokens(t) for t in texts]
        return self._sentence_encoder.encode_all(token_lists, dim=self.pretrained.dim)


class SbertMatcher:
    """Rank candidates by cosine similarity of frozen sentence embeddings."""

    name = "s-be"

    def __init__(self, encoder: Optional[SbertEncoder] = None):
        self.encoder = encoder or SbertEncoder()

    def score_matrix(self, queries: Mapping[str, str], candidates: Mapping[str, str]) -> np.ndarray:
        """The full cosine matrix (used by the Figure 10 combination)."""
        query_ids = list(queries)
        candidate_ids = list(candidates)
        all_texts = [queries[q] for q in query_ids] + [candidates[c] for c in candidate_ids]
        self.encoder.fit_frequencies(all_texts)
        query_matrix = self.encoder.encode_texts([queries[q] for q in query_ids])
        candidate_matrix = self.encoder.encode_texts([candidates[c] for c in candidate_ids])
        return cosine_matrix(query_matrix, candidate_matrix)

    def rank(self, queries: Mapping[str, str], candidates: Mapping[str, str], k: int = 20) -> RankingSet:
        query_ids = list(queries)
        candidate_ids = list(candidates)
        scores = self.score_matrix(queries, candidates)
        return DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            query_ids, candidate_ids
        )
