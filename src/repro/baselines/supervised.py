"""Shared machinery for the supervised baselines (marked * in the paper).

All supervised baselines follow the same protocol:

* :func:`sample_training_pairs` draws, for every annotated positive of a
  training query, ``negatives_per_positive`` random candidates (gold
  matches are skipped);
* :meth:`SupervisedPairMatcher.fit` fits the pair-feature extractor on the
  query and candidate texts, turns the sampled pairs into a training set
  and trains the learner on it (60% of the annotated queries, as in the
  paper);
* :meth:`SupervisedPairMatcher.rank` scores every (query, candidate) pair,
  one score call per query, and decodes the score matrix into top-k
  rankings ordered by (-score, candidate position).

The defaults are DITTO*'s: sequence-level pair features and a logistic
scorer.  Sub-classes override only what differs — the pair features
(:meth:`~SupervisedPairMatcher._pair_features`), the extra texts the
extractor is fitted on, the learner, the score, and the training set.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.features import PairFeatureExtractor
from repro.baselines.nn import LogisticRegression, TrainingConfig
from repro.eval.ranking import RankingSet
from repro.retrieval import DenseTopK
from repro.utils.rng import ensure_rng


def train_test_split_queries(
    query_ids: Sequence[str], train_fraction: float = 0.6, seed=None
) -> Tuple[List[str], List[str]]:
    """Split query ids into train / test sets (paper: 60% for training)."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = ensure_rng(seed)
    ids = list(query_ids)
    order = rng.permutation(len(ids))
    n_train = max(1, int(round(train_fraction * len(ids))))
    train = [ids[i] for i in order[:n_train]]
    test = [ids[i] for i in order[n_train:]]
    if not test:
        test = train[-1:]
        train = train[:-1] or train
    return train, test


def sample_training_pairs(
    rng: np.random.Generator,
    candidates: Mapping[str, object],
    gold: Mapping[str, Set[str]],
    query_ids: Sequence[str],
    negatives_per_positive: int,
) -> Iterator[Tuple[str, str, List[str]]]:
    """Yield ``(query id, positive id, negative ids)`` for every gold match.

    A query's positives come in candidate order, not the hash order of its
    gold set, so the draws do not depend on ``PYTHONHASHSEED``.  Positives
    absent from ``candidates`` are skipped without a draw; each other
    positive draws ``negatives_per_positive`` uniform candidates and keeps
    those that are not gold matches of the query.
    """
    candidate_ids = list(candidates)
    for query_id in query_ids:
        positives = gold.get(query_id, set())
        for positive in [c for c in candidate_ids if c in positives]:
            draws = (
                candidate_ids[int(rng.integers(0, len(candidate_ids)))]
                for _ in range(negatives_per_positive)
            )
            yield query_id, positive, [n for n in draws if n not in positives]


class SupervisedPairMatcher:
    """Binary scorer over (query, candidate) pair features."""

    name = "supervised"

    def __init__(self, extractor: Optional[PairFeatureExtractor] = None, negatives_per_positive: int = 4, seed=None):
        self.extractor = extractor or PairFeatureExtractor()
        self.negatives_per_positive = negatives_per_positive
        self.seed = seed
        self._rng = ensure_rng(seed)
        self._model = None

    # ------------------------------------------------------------------
    def _extra_texts(self) -> List[str]:
        """Texts besides queries and candidates the extractor is fitted on."""
        return []

    def _pair_features(self, query_text: str, candidate_id: str, candidate_text: str) -> np.ndarray:
        """Feature vector of one (query, candidate) pair."""
        return self.extractor.features(query_text, candidate_text)

    def _build_model(self):
        """A fresh, unfitted learner with ``fit(features, labels)``."""
        return LogisticRegression(TrainingConfig(epochs=60, learning_rate=0.2), seed=self.seed)

    def _score_model(self, features: np.ndarray) -> np.ndarray:
        """Pair scores (higher = more likely to match)."""
        return self._model.predict_proba(features)

    def _training_set(
        self, samples: List[Tuple[np.ndarray, List[np.ndarray]]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Features and labels from ``(positive row, negative rows)`` samples:
        one row labelled 1 per positive, one labelled 0 per negative."""
        rows: List[np.ndarray] = []
        labels: List[float] = []
        for positive, negatives in samples:
            rows += [positive, *negatives]
            labels += [1.0] + [0.0] * len(negatives)
        return np.stack(rows), np.asarray(labels)

    # ------------------------------------------------------------------
    def fit(
        self,
        queries: Mapping[str, str],
        candidates: Mapping[str, str],
        gold: Mapping[str, Set[str]],
        train_queries: Optional[Sequence[str]] = None,
    ) -> "SupervisedPairMatcher":
        """Train on the gold matches of ``train_queries`` (default: all annotated)."""
        if train_queries is None:
            train_queries = [q for q in queries if q in gold]
        self.extractor.fit(list(queries.values()) + list(candidates.values()) + self._extra_texts())
        samples = []
        for query_id, positive, negatives in sample_training_pairs(
            self._rng, candidates, gold, train_queries, self.negatives_per_positive
        ):
            query_text = queries[query_id]
            samples.append(
                (
                    self._pair_features(query_text, positive, candidates[positive]),
                    [self._pair_features(query_text, n, candidates[n]) for n in negatives],
                )
            )
        if not samples:
            raise ValueError("no training pairs could be built from the gold matches")
        features, labels = self._training_set(samples)
        self._model = self._build_model()
        self._model.fit(features, labels)
        return self

    def rank(
        self,
        queries: Mapping[str, str],
        candidates: Mapping[str, str],
        k: int = 20,
        query_ids: Optional[Sequence[str]] = None,
    ) -> RankingSet:
        """Rank candidates for ``query_ids`` (default: every query)."""
        if self._model is None:
            raise RuntimeError("matcher is not fitted")
        if query_ids is None:
            query_ids = list(queries)
        candidate_ids = list(candidates)
        scores = np.empty((len(query_ids), len(candidate_ids)))
        for row, query_id in enumerate(query_ids):
            query_text = queries[query_id]
            scores[row] = self._score_model(
                np.stack([self._pair_features(query_text, c, candidates[c]) for c in candidate_ids])
            )
        return DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            query_ids, candidate_ids
        )
