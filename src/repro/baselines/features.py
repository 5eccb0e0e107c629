"""Pair features shared by the supervised baselines.

The supervised baselines of the paper (RANK*, DITTO*, DEEP-M*, TAPAS*,
L-BE*) fine-tune transformers on annotated pairs.  Their offline stand-ins
are feature-based learners; this module computes a compact feature vector
for a (query text, candidate text) pair:

0. TF-IDF cosine similarity
1. Jaccard overlap of token sets
2. containment of query tokens in the candidate
3. containment of candidate tokens in the query
4. pre-trained-embedding cosine (S-BE style encoder)
5. length ratio (min/max token counts)
6. numeric-token overlap (important for CoronaCheck)
7. bigram overlap
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.tfidf import TfIdfVectorizer
from repro.embeddings.similarity import cosine_similarity
from repro.text.preprocess import Preprocessor
from repro.text.tokenizer import is_numeric_token

FEATURE_NAMES = (
    "tfidf_cosine",
    "jaccard",
    "query_containment",
    "candidate_containment",
    "pretrained_cosine",
    "length_ratio",
    "numeric_overlap",
    "bigram_overlap",
)


@dataclass
class _EncodedText:
    tokens: List[str]
    token_set: frozenset
    bigrams: frozenset
    numeric: frozenset
    tfidf: Dict[int, float]
    embedding: Optional[np.ndarray]


class PairFeatureExtractor:
    """Computes pair feature vectors with cached per-text encodings."""

    def __init__(self, encoder=None, preprocessor: Optional[Preprocessor] = None):
        """``encoder`` is an optional sentence encoder with ``encode(tokens)``."""
        self.encoder = encoder
        self.preprocessor = preprocessor or Preprocessor()
        self._vectorizer = TfIdfVectorizer()
        self._cache: Dict[str, _EncodedText] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, texts: Sequence[str]) -> "PairFeatureExtractor":
        """Fit the TF-IDF statistics on the union of all texts."""
        token_lists = [self.preprocessor.tokens(t) for t in texts]
        self._vectorizer.fit(token_lists)
        self._fitted = True
        return self

    def _encode(self, text: str) -> _EncodedText:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        if not self._fitted:
            raise RuntimeError("call fit() with the corpus texts before extracting features")
        tokens = self.preprocessor.tokens(text)
        token_set = frozenset(tokens)
        bigrams = frozenset(zip(tokens, tokens[1:]))
        numeric = frozenset(t for t in tokens if is_numeric_token(t))
        tfidf = self._vectorizer.transform_one(tokens)
        embedding = self.encoder.encode(tokens) if self.encoder is not None else None
        encoded = _EncodedText(
            tokens=tokens,
            token_set=token_set,
            bigrams=bigrams,
            numeric=numeric,
            tfidf=tfidf,
            embedding=embedding,
        )
        self._cache[text] = encoded
        return encoded

    # ------------------------------------------------------------------
    def features(self, query_text: str, candidate_text: str) -> np.ndarray:
        """The feature vector of one (query, candidate) pair."""
        q = self._encode(query_text)
        c = self._encode(candidate_text)
        union = q.token_set | c.token_set
        inter = q.token_set & c.token_set
        jaccard = len(inter) / len(union) if union else 0.0
        query_containment = len(inter) / len(q.token_set) if q.token_set else 0.0
        candidate_containment = len(inter) / len(c.token_set) if c.token_set else 0.0
        if q.embedding is not None and c.embedding is not None:
            pretrained_cos = cosine_similarity(q.embedding, c.embedding)
        else:
            pretrained_cos = 0.0
        len_q, len_c = len(q.tokens), len(c.tokens)
        length_ratio = min(len_q, len_c) / max(len_q, len_c) if max(len_q, len_c) else 0.0
        numeric_union = q.numeric | c.numeric
        numeric_overlap = (
            len(q.numeric & c.numeric) / len(numeric_union) if numeric_union else 0.0
        )
        bigram_union = q.bigrams | c.bigrams
        bigram_overlap = len(q.bigrams & c.bigrams) / len(bigram_union) if bigram_union else 0.0
        return np.array(
            [
                TfIdfVectorizer.cosine(q.tfidf, c.tfidf),
                jaccard,
                query_containment,
                candidate_containment,
                pretrained_cos,
                length_ratio,
                numeric_overlap,
                bigram_overlap,
            ],
            dtype=float,
        )
