"""Data-node filtering strategies (Section II-B and Figure 9).

The graph would explode if every term of both corpora became a node.  The
paper's default strategy ("Intersect") creates data nodes only for the corpus
with the smaller distinct vocabulary and keeps, from the other corpus, only
the terms that already exist in the graph.  The alternative evaluated in
Figure 9 keeps, for every document, the k highest TF-IDF terms (the strategy
used by Ditto for text-heavy datasets).  ``BulkNoFilter`` keeps everything
and is the "Normal" series of Figure 9.

The filters operate on interned term-id arrays: membership tests are
boolean lookups indexed by id and the TF-IDF top-k is one ``lexsort`` per
document.  :meth:`repro.graph.builder.GraphBuilderConfig.make_filter` picks
one by name.  The string-based formulation they must agree with (same keep
decisions, same keep *order*) is the test oracle in ``tests/oracles/graph.py``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Terms the TF-IDF filter keeps per document.
TFIDF_TOP_K = 10


@dataclass
class FilterStatistics:
    """Summary of what a filter kept / dropped (for reports and tests).

    ``kept`` counts the terms that actually joined the graph: for the first
    corpus that is everything the strategy kept; for the second corpus,
    kept terms that were dropped because they were not already nodes (the
    Intersect semantics) do not count.
    """

    first_total: int = 0
    first_kept: int = 0
    second_total: int = 0
    second_kept: int = 0

    @property
    def kept_fraction(self) -> float:
        """Overall fraction of corpus terms that became graph connections."""
        total = self.first_total + self.second_total
        return (self.first_kept + self.second_kept) / total if total else 1.0


# ----------------------------------------------------------------------
class BulkFilter(ABC):
    """Keep decisions over interned term-id arrays.

    Documents are numpy arrays of dense term ids, so membership filters are
    vectorised mask lookups.  ``second_may_create_nodes`` says whether
    second-corpus terms may create *new* data nodes: under Intersect
    filtering only the anchor corpus introduces nodes, while the Normal and
    TF-IDF strategies let both corpora do so.
    """

    name: str = "abstract"
    second_may_create_nodes: bool = True

    @abstractmethod
    def keep_first(self, ids: np.ndarray) -> np.ndarray:
        """Ids of a first-corpus document that become nodes."""

    @abstractmethod
    def keep_second(self, ids: np.ndarray) -> np.ndarray:
        """Ids of a second-corpus document that become nodes."""


class BulkNoFilter(BulkFilter):
    """Keep everything (the "Normal" series)."""

    name = "normal"

    def keep_first(self, ids: np.ndarray) -> np.ndarray:  # noqa: D102
        return ids

    def keep_second(self, ids: np.ndarray) -> np.ndarray:  # noqa: D102
        return ids


class BulkIntersectFilter(BulkFilter):
    """Anchor-vocabulary filtering over a boolean id-membership table."""

    name = "intersect"

    def __init__(
        self,
        first_docs: Sequence[np.ndarray],
        second_docs: Sequence[np.ndarray],
        num_terms: int,
    ):
        in_first = np.zeros(num_terms, dtype=bool)
        for ids in first_docs:
            in_first[ids] = True
        in_second = np.zeros(num_terms, dtype=bool)
        for ids in second_docs:
            in_second[ids] = True
        # The first corpus wins a tie.
        if int(in_first.sum()) <= int(in_second.sum()):
            self.anchor = "first"
            self._mask = in_first
        else:
            self.anchor = "second"
            self._mask = in_second
        self.second_may_create_nodes = self.anchor == "second"

    def keep_first(self, ids: np.ndarray) -> np.ndarray:  # noqa: D102
        if self.anchor == "first":
            return ids
        return ids[self._mask[ids]]

    def keep_second(self, ids: np.ndarray) -> np.ndarray:  # noqa: D102
        if self.anchor == "second":
            return ids
        return ids[self._mask[ids]]


class BulkTfIdfFilter(BulkFilter):
    """Per-document TF-IDF top-:data:`TFIDF_TOP_K` over id arrays.

    The score of a term is its idf, taken from a ``math.log`` table indexed
    by document frequency; ties break on the lexicographic rank of the term
    string, so the kept ids come out sorted by ``(-score, term)``.
    """

    name = "tfidf"

    def __init__(
        self,
        first_docs: Sequence[np.ndarray],
        second_docs: Sequence[np.ndarray],
        terms: Sequence[str],
    ):
        num_terms = len(terms)
        # Rank only the terms present in the current corpora: a persistent
        # interner may carry terms from earlier builds, and sorting those
        # too would make filter construction grow with history rather than
        # with the current vocabulary.  Relative order among present terms
        # is unchanged, so tie-breaks match the full sort exactly.
        present = np.zeros(num_terms, dtype=bool)
        for ids in first_docs:
            present[ids] = True
        for ids in second_docs:
            present[ids] = True
        present_ids = np.nonzero(present)[0]
        order = sorted(present_ids.tolist(), key=terms.__getitem__)
        self._lex_rank = np.zeros(num_terms, dtype=np.int64)
        self._lex_rank[order] = np.arange(len(order))
        self._idf_first = self._idf(first_docs, num_terms)
        self._idf_second = self._idf(second_docs, num_terms)

    @staticmethod
    def _idf(documents: Sequence[np.ndarray], num_terms: int) -> np.ndarray:
        n_docs = len(documents)
        df = np.zeros(num_terms, dtype=np.int64)
        for ids in documents:
            df[ids] += 1  # per-document ids are already unique
        # math.log per distinct df value keeps scores bit-identical to a
        # per-term math.log (np.log may differ from libm by one ulp).
        max_df = int(df.max()) if df.size else 0
        table = np.array(
            [math.log((1 + n_docs) / (1 + k)) + 1.0 for k in range(max_df + 1)]
        )
        return table[df]

    def _top(self, ids: np.ndarray, idf: np.ndarray) -> np.ndarray:
        if ids.size == 0:
            return ids
        order = np.lexsort((self._lex_rank[ids], -idf[ids]))
        return ids[order[:TFIDF_TOP_K]]

    def keep_first(self, ids: np.ndarray) -> np.ndarray:  # noqa: D102
        return self._top(ids, self._idf_first)

    def keep_second(self, ids: np.ndarray) -> np.ndarray:  # noqa: D102
        return self._top(ids, self._idf_second)
