"""Reference graph construction: Algorithm 1 as a per-term loop.

:func:`build_reference` adds every node and edge one call at a time and
filters terms with the string-based strategies below.  The bulk builder in
:mod:`repro.graph.builder` must reproduce its nodes *in the same insertion
order*, its node metadata, edge set and filter statistics exactly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.corpus.documents import TextCorpus
from repro.corpus.table import Table
from repro.corpus.taxonomy import Taxonomy
from repro.graph.builder import (
    COLUMN_PREFIX,
    BuiltGraph,
    GraphBuilder,
    GraphBuilderConfig,
    metadata_label,
)
from repro.graph.filtering import FilterStatistics
from repro.graph.graph import MatchGraph, NodeKind
from repro.text.preprocess import Preprocessor


# ----------------------------------------------------------------------
# String-based filter strategies (Section II-B and Figure 9)
class FilterStrategy(ABC):
    """Decides which terms of each corpus become data nodes."""

    name: str = "abstract"

    @abstractmethod
    def prepare(
        self,
        first_corpus_terms: Sequence[Sequence[str]],
        second_corpus_terms: Sequence[Sequence[str]],
    ) -> None:
        """Inspect the full term lists of both corpora before filtering."""

    @abstractmethod
    def keep_first(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        """Terms of first-corpus document ``doc_index`` that become nodes."""

    @abstractmethod
    def keep_second(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        """Terms of second-corpus document ``doc_index`` that become nodes."""


class NoFilter(FilterStrategy):
    """Keep every term of both corpora (Figure 9, "Normal")."""

    name = "normal"

    def prepare(self, first_corpus_terms, second_corpus_terms) -> None:
        return None

    def keep_first(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        return list(terms)

    def keep_second(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        return list(terms)


class IntersectFilter(FilterStrategy):
    """The paper's default filtering (Section II-B).

    Data nodes are created from the corpus with the smaller number of
    distinct terms ("anchor" corpus); terms of the other corpus that are not
    already nodes are dropped.
    """

    name = "intersect"

    def __init__(self) -> None:
        self.anchor = "first"
        self._anchor_vocabulary: set = set()

    def prepare(self, first_corpus_terms, second_corpus_terms) -> None:
        first_vocab = set()
        for terms in first_corpus_terms:
            first_vocab.update(terms)
        second_vocab = set()
        for terms in second_corpus_terms:
            second_vocab.update(terms)
        if len(first_vocab) <= len(second_vocab):
            self.anchor = "first"
            self._anchor_vocabulary = first_vocab
        else:
            self.anchor = "second"
            self._anchor_vocabulary = second_vocab

    def keep_first(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        if self.anchor == "first":
            return list(terms)
        return [t for t in terms if t in self._anchor_vocabulary]

    def keep_second(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        if self.anchor == "second":
            return list(terms)
        return [t for t in terms if t in self._anchor_vocabulary]


class TfIdfFilter(FilterStrategy):
    """Keep the top-k TF-IDF terms of every document (Figure 9, "TFIDF")."""

    name = "tfidf"

    def __init__(self, top_k: int = 10):
        self.top_k = top_k
        self._idf_first: Dict[str, float] = {}
        self._idf_second: Dict[str, float] = {}

    @staticmethod
    def _idf(documents: Sequence[Sequence[str]]) -> Dict[str, float]:
        n_docs = len(documents)
        doc_freq: Counter = Counter()
        for terms in documents:
            doc_freq.update(set(terms))
        return {
            term: math.log((1 + n_docs) / (1 + df)) + 1.0 for term, df in doc_freq.items()
        }

    def prepare(self, first_corpus_terms, second_corpus_terms) -> None:
        self._idf_first = self._idf(first_corpus_terms)
        self._idf_second = self._idf(second_corpus_terms)

    def _top_terms(self, terms: Sequence[str], idf: Dict[str, float]) -> List[str]:
        counts = Counter(terms)
        scored = [(counts[t] * idf.get(t, 1.0), t) for t in counts]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [t for _score, t in scored[: self.top_k]]

    def keep_first(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        return self._top_terms(terms, self._idf_first)

    def keep_second(self, doc_index: int, terms: Sequence[str]) -> List[str]:
        return self._top_terms(terms, self._idf_second)


def make_string_filter(config: GraphBuilderConfig) -> FilterStrategy:
    """The string filter named by ``config.filter_strategy_name``."""
    if config.filter_strategy_name == "intersect":
        return IntersectFilter()
    if config.filter_strategy_name == "normal":
        return NoFilter()
    if config.filter_strategy_name == "tfidf":
        return TfIdfFilter(top_k=config.tfidf_top_k)
    raise ValueError(f"unknown filter strategy: {config.filter_strategy_name!r}")


# ----------------------------------------------------------------------
# Algorithm 1, one term at a time
def build_reference(config: GraphBuilderConfig, first, second) -> BuiltGraph:
    """Construct the joint graph over ``first`` and ``second`` term by term."""
    preprocessor = Preprocessor(config.preprocess)
    first_terms = _corpus_terms(preprocessor, first)
    second_terms = _corpus_terms(preprocessor, second)

    filter_strategy = make_string_filter(config)
    filter_strategy.prepare(
        [terms for _oid, terms in first_terms],
        [terms for _oid, terms in second_terms],
    )

    graph = MatchGraph()
    first_metadata: Dict[str, str] = {}
    second_metadata: Dict[str, str] = {}
    stats = FilterStatistics()

    # ---- first corpus (Algorithm 1, lines 3-25) -------------------
    role = GraphBuilder._role_of(first)
    for index, (object_id, terms) in enumerate(first_terms):
        label = metadata_label(first, object_id)
        graph.add_node(label, kind=NodeKind.METADATA, corpus="first", role=role)
        first_metadata[object_id] = label
        kept = filter_strategy.keep_first(index, terms)
        stats.first_total += len(terms)
        stats.first_kept += len(kept)
        column_labels = _column_labels_for(config, preprocessor, first, object_id, graph)
        for term in kept:
            graph.add_node(term, kind=NodeKind.DATA, corpus="first", role="term")
            graph.add_edge(label, term)
            for col_label in column_labels.get(term, ()):  # table only
                graph.add_edge(col_label, term)

    if isinstance(first, Taxonomy) and config.connect_structured_metadata:
        _connect_taxonomy(graph, first, first_metadata)

    # ---- second corpus (Algorithm 1, lines 27-34) ------------------
    role = GraphBuilder._role_of(second)
    allow_new = _second_may_create_nodes(filter_strategy)
    for index, (object_id, terms) in enumerate(second_terms):
        label = metadata_label(second, object_id)
        graph.add_node(label, kind=NodeKind.METADATA, corpus="second", role=role)
        second_metadata[object_id] = label
        kept = filter_strategy.keep_second(index, terms)
        stats.second_total += len(terms)
        for term in kept:
            if graph.has_node(term):
                graph.add_edge(label, term)
                stats.second_kept += 1
            elif allow_new:
                graph.add_node(term, kind=NodeKind.DATA, corpus="second", role="term")
                graph.add_edge(label, term)
                stats.second_kept += 1

    if isinstance(second, Taxonomy) and config.connect_structured_metadata:
        _connect_taxonomy(graph, second, second_metadata)

    return BuiltGraph(
        graph=graph,
        first_metadata=first_metadata,
        second_metadata=second_metadata,
        filter_stats=stats,
        intersect_anchor=(
            filter_strategy.anchor if isinstance(filter_strategy, IntersectFilter) else None
        ),
    )


def _corpus_terms(preprocessor: Preprocessor, corpus) -> List[Tuple[str, List[str]]]:
    """(object id, term list) for every document of ``corpus``."""
    result: List[Tuple[str, List[str]]] = []
    if isinstance(corpus, Table):
        for row in corpus:
            values = [str(v) for _c, v in row.non_null_items()]
            result.append((row.row_id, preprocessor.terms_of_values(values)))
    elif isinstance(corpus, Taxonomy):
        for node in corpus:
            result.append((node.node_id, preprocessor.terms(node.label)))
    elif isinstance(corpus, TextCorpus):
        for doc in corpus:
            result.append((doc.doc_id, preprocessor.terms(doc.text)))
    else:
        raise TypeError(f"unsupported corpus type: {type(corpus)!r}")
    return result


def _column_labels_for(
    config: GraphBuilderConfig,
    preprocessor: Preprocessor,
    corpus,
    object_id: str,
    graph: MatchGraph,
) -> Dict[str, List[str]]:
    """For tables: map each term of the row to its column node labels.

    Also adds the column metadata nodes to the graph on first use.
    """
    if not isinstance(corpus, Table) or not config.add_column_nodes:
        return {}
    row = corpus[object_id]
    mapping: Dict[str, List[str]] = {}
    for column, value in row.non_null_items():
        col_label = f"{COLUMN_PREFIX}{corpus.name}::{column}"
        graph.add_node(col_label, kind=NodeKind.METADATA, corpus="first", role="column")
        for term in preprocessor.terms(str(value)):
            mapping.setdefault(term, []).append(col_label)
    return mapping


def _connect_taxonomy(graph: MatchGraph, taxonomy: Taxonomy, metadata: Dict[str, str]) -> None:
    """Add parent/child metadata-metadata edges (Algorithm 1 lines 12-16)."""
    for node in taxonomy:
        if node.parent_id is None:
            continue
        child_label = metadata.get(node.node_id)
        parent_label = metadata.get(node.parent_id)
        if child_label and parent_label:
            graph.add_edge(child_label, parent_label)


def _second_may_create_nodes(filter_strategy: FilterStrategy) -> bool:
    """Whether second-corpus terms may create *new* data nodes.

    Under Intersect filtering only the anchor corpus introduces nodes; the
    Normal and TF-IDF strategies of Figure 9 let both corpora do so.
    """
    if isinstance(filter_strategy, IntersectFilter):
        return filter_strategy.anchor == "second"
    return True
