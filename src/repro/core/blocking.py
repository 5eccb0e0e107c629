"""Candidate blocking for faster matching.

The paper's conclusion lists *blocking* as planned future work: instead of
scoring every (query, candidate) pair with cosine similarity, a cheap
blocking pass restricts each query to the candidates it shares at least one
informative term with, and only those pairs are ranked with the embeddings.

Two blockers are provided:

* :class:`TokenBlocking` — inverted index over the terms of the candidate
  documents; a candidate is in the block of a query when they share at
  least ``min_shared_terms`` terms (rare terms can be weighted by IDF).
* :class:`MetadataNeighborhoodBlocking` — graph-native blocking: candidates
  whose metadata node is within two hops of the query's metadata node in
  the match graph, i.e. that share a term with it.  This reuses the
  structure the pipeline already built and therefore needs no extra text
  processing.

Both are lifted to the per-query-id
:class:`~repro.retrieval.base.QueryBlocker` interface by
:class:`TextQueryBlocker` / :class:`GraphQueryBlocker`, which is what
:class:`~repro.retrieval.blocked.BlockedTopK` consumes.  The pipeline
builds the graph-native one (``RetrievalConfig.backend="blocked"``); token
blocking needs the corpus texts, so it is passed in as
``TDMatch.match(blocker=...)``.  Either way only the blocked pairs are
*scored* (exactly ``RetrievalStats.scored_pairs`` of them), and a query
whose block is empty ranks every candidate.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Mapping, Optional

from repro.graph.graph import MatchGraph
from repro.text.preprocess import Preprocessor

#: How far from a query's metadata node neighbourhood blocking reaches: a
#: metadata node two hops away shares a term with it.
BLOCK_HOPS = 2


class TokenBlocking:
    """Inverted-index blocking on shared (optionally IDF-weighted) terms."""

    def __init__(
        self,
        min_shared_terms: int = 1,
        use_idf: bool = True,
        preprocessor: Optional[Preprocessor] = None,
    ):
        if min_shared_terms < 1:
            raise ValueError("min_shared_terms must be >= 1")
        self.min_shared_terms = min_shared_terms
        self.use_idf = use_idf
        self.preprocessor = preprocessor or Preprocessor()
        self._index: Dict[str, List[str]] = {}
        self._idf: Dict[str, float] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, candidates: Mapping[str, str]) -> "TokenBlocking":
        """Index the candidate texts."""
        index: Dict[str, List[str]] = defaultdict(list)
        doc_freq: Counter = Counter()
        for candidate_id, text in candidates.items():
            tokens = set(self.preprocessor.tokens(text))
            doc_freq.update(tokens)
            for token in tokens:
                index[token].append(candidate_id)
        n_docs = max(len(candidates), 1)
        self._idf = {t: math.log((1 + n_docs) / (1 + df)) + 1.0 for t, df in doc_freq.items()}
        self._index = dict(index)
        self._fitted = True
        return self

    def block(self, query_text: str) -> List[str]:
        """Candidate ids sharing enough terms with ``query_text``.

        The block is sorted by decreasing (weighted) overlap.
        """
        if not self._fitted:
            raise RuntimeError("call fit() with the candidate texts first")
        tokens = set(self.preprocessor.tokens(query_text))
        overlap: Counter = Counter()
        weighted: Dict[str, float] = defaultdict(float)
        for token in tokens:
            for candidate_id in self._index.get(token, ()):  # inverted index lookup
                overlap[candidate_id] += 1
                weighted[candidate_id] += self._idf.get(token, 1.0) if self.use_idf else 1.0
        block = [cid for cid, count in overlap.items() if count >= self.min_shared_terms]
        block.sort(key=lambda cid: (-weighted[cid], cid))
        return block


class MetadataNeighborhoodBlocking:
    """Graph-native blocking: candidates within :data:`BLOCK_HOPS` of the query node."""

    def __init__(self, graph: MatchGraph):
        self.graph = graph

    def block(self, query_label: str, candidate_labels: Mapping[str, str]) -> List[str]:
        """Candidate object ids whose metadata label is near ``query_label``.

        ``candidate_labels`` maps candidate object id → metadata-node label.
        """
        graph = self.graph
        source = graph.ids.get(query_label)
        if source is None:
            return []
        indptr, indices = graph.indptr, graph.indices
        seen = {source}
        frontier = [source]
        for _ in range(BLOCK_HOPS):
            reached = []
            for node in frontier:
                for neighbor in indices[indptr[node] : indptr[node + 1]].tolist():
                    if neighbor not in seen:
                        seen.add(neighbor)
                        reached.append(neighbor)
            frontier = reached
            if not frontier:
                break
        ids = graph.ids
        return [cid for cid, label in candidate_labels.items() if ids.get(label) in seen]


# ----------------------------------------------------------------------
# QueryBlocker adapters: per-query-id blocks for the retrieval layer.
class TextQueryBlocker:
    """Adapts :class:`TokenBlocking` to the ``QueryBlocker`` interface.

    ``query_texts`` maps query id → text; queries without a text get an
    empty block (which falls back to every candidate).
    """

    def __init__(self, blocking: TokenBlocking, query_texts: Mapping[str, str]):
        self.blocking = blocking
        self.query_texts = dict(query_texts)

    def block_for(self, query_id: str) -> List[str]:
        text = self.query_texts.get(query_id, "")
        return self.blocking.block(text) if text else []


class GraphQueryBlocker:
    """Adapts :class:`MetadataNeighborhoodBlocking` to ``QueryBlocker``.

    ``query_labels`` / ``candidate_labels`` map object ids to their
    metadata-node labels in the match graph (the pipeline's
    ``BuiltGraph.first_metadata`` / ``second_metadata``).
    """

    def __init__(
        self,
        blocking: MetadataNeighborhoodBlocking,
        query_labels: Mapping[str, str],
        candidate_labels: Mapping[str, str],
    ):
        self.blocking = blocking
        self.query_labels = dict(query_labels)
        self.candidate_labels = dict(candidate_labels)

    def block_for(self, query_id: str) -> List[str]:
        label = self.query_labels.get(query_id)
        if label is None:
            return []
        return self.blocking.block(label, self.candidate_labels)
