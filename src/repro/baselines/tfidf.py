"""TF-IDF vectorisation and BM25 retrieval.

Classical IR baselines (the paper's related work mentions BM25) and the
feature substrate shared by the supervised baselines: pair features include
the TF-IDF cosine between the two texts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.text.preprocess import Preprocessor


class TfIdfVectorizer:
    """Fit a TF-IDF model on tokenised documents and transform new ones."""

    def __init__(self, sublinear_tf: bool = True):
        self.sublinear_tf = sublinear_tf
        self._idf: Dict[str, float] = {}
        self._vocab: Dict[str, int] = {}

    def fit(self, documents: Sequence[Sequence[str]]) -> "TfIdfVectorizer":
        doc_freq: Counter = Counter()
        for tokens in documents:
            doc_freq.update(set(tokens))
        n_docs = len(documents)
        self._vocab = {term: i for i, term in enumerate(sorted(doc_freq))}
        self._idf = {
            term: math.log((1 + n_docs) / (1 + df)) + 1.0 for term, df in doc_freq.items()
        }
        return self

    def transform_one(self, tokens: Sequence[str]) -> Dict[int, float]:
        """Sparse TF-IDF vector of one document as {feature index: weight}."""
        if not self._vocab:
            raise RuntimeError("vectorizer is not fitted")
        counts = Counter(t for t in tokens if t in self._vocab)
        vector: Dict[int, float] = {}
        for term, count in counts.items():
            tf = 1.0 + math.log(count) if self.sublinear_tf else float(count)
            vector[self._vocab[term]] = tf * self._idf.get(term, 1.0)
        norm = math.sqrt(sum(w * w for w in vector.values()))
        if norm > 0:
            vector = {i: w / norm for i, w in vector.items()}
        return vector

    def transform(self, documents: Sequence[Sequence[str]]) -> List[Dict[int, float]]:
        return [self.transform_one(tokens) for tokens in documents]

    @staticmethod
    def cosine(a: Mapping[int, float], b: Mapping[int, float]) -> float:
        """Cosine between two (already normalised) sparse vectors."""
        if len(a) > len(b):
            a, b = b, a
        return sum(w * b.get(i, 0.0) for i, w in a.items())


@dataclass
class _PreparedCorpus:
    ids: List[str]
    tokens: List[List[str]]


def _prepare(texts: Mapping[str, str], preprocessor: Preprocessor) -> _PreparedCorpus:
    ids = list(texts)
    tokens = [preprocessor.tokens(texts[i]) for i in ids]
    return _PreparedCorpus(ids=ids, tokens=tokens)


class TfIdfMatcher:
    """Rank candidates for queries by TF-IDF cosine similarity."""

    name = "tfidf"

    def __init__(self, preprocessor: Optional[Preprocessor] = None):
        self.preprocessor = preprocessor or Preprocessor()

    def rank(self, queries: Mapping[str, str], candidates: Mapping[str, str], k: int = 20) -> RankingSet:
        query_corpus = _prepare(queries, self.preprocessor)
        candidate_corpus = _prepare(candidates, self.preprocessor)
        vectorizer = TfIdfVectorizer().fit(candidate_corpus.tokens + query_corpus.tokens)
        candidate_vectors = vectorizer.transform(candidate_corpus.tokens)
        scores = np.empty((len(query_corpus.ids), len(candidate_vectors)))
        for row, tokens in enumerate(query_corpus.tokens):
            query_vector = vectorizer.transform_one(tokens)
            scores[row] = [vectorizer.cosine(query_vector, cvec) for cvec in candidate_vectors]
        return DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            query_corpus.ids, candidate_corpus.ids
        )


@dataclass
class BM25Matcher:
    """Okapi BM25 ranking."""

    k1: float = 1.5
    b: float = 0.75
    preprocessor: Preprocessor = field(default_factory=Preprocessor)
    name: str = "bm25"

    def rank(self, queries: Mapping[str, str], candidates: Mapping[str, str], k: int = 20) -> RankingSet:
        candidate_corpus = _prepare(candidates, self.preprocessor)
        query_corpus = _prepare(queries, self.preprocessor)

        doc_freq: Counter = Counter()
        for tokens in candidate_corpus.tokens:
            doc_freq.update(set(tokens))
        n_docs = len(candidate_corpus.tokens)
        avg_len = (
            sum(len(t) for t in candidate_corpus.tokens) / n_docs if n_docs else 0.0
        )
        idf = {
            term: math.log(1 + (n_docs - df + 0.5) / (df + 0.5)) for term, df in doc_freq.items()
        }
        candidate_counts = [Counter(tokens) for tokens in candidate_corpus.tokens]

        scores = np.zeros((len(query_corpus.ids), n_docs))
        for row, query_tokens in enumerate(query_corpus.tokens):
            for term in query_tokens:
                term_idf = idf.get(term)
                if term_idf is None:
                    continue
                for i, counts in enumerate(candidate_counts):
                    tf = counts.get(term, 0)
                    if tf == 0:
                        continue
                    length_norm = 1 - self.b + self.b * len(candidate_corpus.tokens[i]) / max(avg_len, 1e-9)
                    scores[row, i] += term_idf * tf * (self.k1 + 1) / (tf + self.k1 * length_norm)
        return DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            query_corpus.ids, candidate_corpus.ids
        )
