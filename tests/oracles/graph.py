"""The dict-of-sets graph, and Algorithm 1 and the merges as label loops.

:class:`ReferenceGraph` is a mutable graph of labels: a dict of neighbour
sets with a node registry.  The oracles edit it one node or edge at a time
and :meth:`ReferenceGraph.freeze` turns the result into the library's
:class:`~repro.graph.graph.MatchGraph`; :meth:`ReferenceGraph.thaw` goes
the other way.  Its BFS helpers (``shortest_path``,
``all_shortest_paths``, ``connected_component``) serve the compression
oracle and the tests.

:func:`build_reference` adds every node and edge one call at a time and
filters terms with the string-based strategies below.  The bulk builder in
:mod:`repro.graph.builder` must reproduce its nodes *in the same insertion
order*, its node metadata, edge set and filter statistics exactly.  The
merge oracles replay the merges of :mod:`repro.graph.merging` and SSuM's
first phase as ``merge_nodes`` calls.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
from repro.embeddings.similarity import cosine_similarity
from repro.graph.filtering import TFIDF_TOP_K, FilterStatistics
from repro.graph.graph import MatchGraph, NodeInfo, NodeKind
from repro.text.preprocess import Preprocessor


# ----------------------------------------------------------------------
# The dict-of-sets graph
class ReferenceGraph:
    """Undirected, unweighted graph of labels with typed nodes."""

    def __init__(self) -> None:
        self._adjacency: Dict[str, Set[str]] = {}
        self._info: Dict[str, NodeInfo] = {}
        self._edge_count = 0

    # -- conversion ----------------------------------------------------
    def freeze(self) -> MatchGraph:
        """The library graph with this graph's nodes, in insertion order."""
        labels = list(self._info)
        ids = {label: i for i, label in enumerate(labels)}
        infos = list(self._info.values())
        edges = list(self.edges())
        return MatchGraph.from_edges(
            labels,
            [info.kind for info in infos],
            [info.corpus for info in infos],
            [info.role for info in infos],
            [ids[u] for u, _v in edges],
            [ids[v] for _u, v in edges],
        )

    @classmethod
    def thaw(cls, graph: MatchGraph) -> "ReferenceGraph":
        """A mutable copy of a library graph, nodes in id order."""
        thawed = cls()
        for label in graph.nodes():
            info = graph.node_info(label)
            thawed.add_node(label, kind=info.kind, corpus=info.corpus, role=info.role)
        for u, v in graph.edges():
            thawed.add_edge(u, v)
        return thawed

    # -- nodes -----------------------------------------------------------
    def add_node(
        self,
        label: str,
        kind: NodeKind = NodeKind.DATA,
        corpus: str = "first",
        role: Optional[str] = None,
    ) -> bool:
        """Add a node; returns True if it was new.

        Adding an existing node changes nothing but its corpus, which
        becomes ``"both"`` when the node is seen from both corpora.
        """
        if not label:
            raise ValueError("node label must be non-empty")
        existing = self._info.get(label)
        if existing is not None:
            if {existing.corpus, corpus} == {"first", "second"}:
                self._info[label] = existing._replace(corpus="both")
            return False
        if role is None:
            role = "term" if kind == NodeKind.DATA else "document"
        self._info[label] = NodeInfo(label=label, kind=kind, corpus=corpus, role=role)
        self._adjacency[label] = set()
        return True

    def remove_node(self, label: str) -> None:
        """Remove a node and all its incident edges."""
        if label not in self._info:
            raise KeyError(f"no such node: {label!r}")
        for neighbor in self._adjacency.pop(label):
            self._adjacency[neighbor].discard(label)
            self._edge_count -= 1
        del self._info[label]

    def has_node(self, label: str) -> bool:
        return label in self._info

    def __contains__(self, label: str) -> bool:
        return label in self._info

    def node_info(self, label: str) -> NodeInfo:
        return self._info[label]

    def is_metadata(self, label: str) -> bool:
        return self._info[label].kind == NodeKind.METADATA

    def is_data(self, label: str) -> bool:
        return self._info[label].kind == NodeKind.DATA

    def nodes(self, kind: Optional[NodeKind] = None) -> List[str]:
        return [label for label, info in self._info.items() if kind is None or info.kind == kind]

    def data_nodes(self) -> List[str]:
        return self.nodes(NodeKind.DATA)

    def metadata_nodes(self) -> List[str]:
        return self.nodes(NodeKind.METADATA)

    def num_nodes(self) -> int:
        return len(self._info)

    def __len__(self) -> int:
        return len(self._info)

    # -- edges -----------------------------------------------------------
    def add_edge(self, u: str, v: str) -> bool:
        """Add an undirected edge; returns True if it was new.

        Both endpoints must exist; self-loops are ignored.
        """
        if u not in self._info or v not in self._info:
            missing = u if u not in self._info else v
            raise KeyError(f"cannot add edge, node not in graph: {missing!r}")
        if u == v or v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._edge_count += 1
        return True

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, label: str) -> Set[str]:
        """The neighbour set of a node (do not mutate)."""
        return self._adjacency[label]

    def degree(self, label: str) -> int:
        return len(self._adjacency[label])

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return self._edge_count

    # -- edits the stages make -------------------------------------------
    def merge_nodes(self, keep: str, absorb: str) -> None:
        """Merge ``absorb`` into ``keep``: its edges move to ``keep``."""
        if keep == absorb:
            return
        if keep not in self._info or absorb not in self._info:
            raise KeyError("both nodes must exist to be merged")
        for neighbor in list(self._adjacency[absorb]):
            if neighbor != keep:
                self.add_edge(keep, neighbor)
        self.remove_node(absorb)

    def remove_sink_nodes(self, protect_metadata: bool = True) -> int:
        """Remove, in one pass, the nodes of degree <= 1 (Algorithm 2's
        cleaning step); metadata nodes are kept unless unprotected."""
        sinks = [
            label
            for label in self._info
            if not (protect_metadata and self.is_metadata(label)) and self.degree(label) <= 1
        ]
        for label in sinks:
            self.remove_node(label)
        return len(sinks)

    def copy(self) -> "ReferenceGraph":
        clone = ReferenceGraph()
        clone._info = dict(self._info)
        clone._adjacency = {label: set(nbrs) for label, nbrs in self._adjacency.items()}
        clone._edge_count = self._edge_count
        return clone

    # -- BFS helpers -----------------------------------------------------
    def shortest_path(self, source: str, target: str) -> Optional[List[str]]:
        """One shortest path from ``source`` to ``target`` (BFS), or None."""
        if source not in self._info or target not in self._info:
            raise KeyError("both endpoints must be in the graph")
        if source == target:
            return [source]
        parents: Dict[str, Optional[str]] = {source: None}
        frontier = [source]
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if neighbor in parents:
                        continue
                    parents[neighbor] = node
                    if neighbor == target:
                        path = [target]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        return path[::-1]
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def all_shortest_paths(self, source: str, target: str, limit: int = 64) -> List[List[str]]:
        """All shortest paths between two nodes (BFS DAG enumeration).

        ``limit`` caps the number of enumerated paths so that dense
        regions cannot blow up the enumeration.
        """
        if source not in self._info or target not in self._info:
            raise KeyError("both endpoints must be in the graph")
        if source == target:
            return [[source]]
        # BFS recording all parents at the previous level.
        level = {source: 0}
        parents: Dict[str, List[str]] = {source: []}
        frontier = [source]
        depth = 0
        while frontier and not (target in level and level[target] == depth):
            depth += 1
            next_frontier: List[str] = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if neighbor not in level:
                        level[neighbor] = depth
                        parents[neighbor] = [node]
                        next_frontier.append(neighbor)
                    elif level[neighbor] == depth:
                        parents[neighbor].append(node)
            frontier = next_frontier
        if target not in parents:
            return []
        # Enumerate paths backwards from the target with an explicit stack:
        # recursion would overflow on paths longer than the recursion limit
        # (e.g. chain-like graphs).
        paths: List[List[str]] = []
        stack: List[Tuple[str, List[str]]] = [(target, [])]
        while stack and len(paths) < limit:
            node, acc = stack.pop()
            if node == source:
                paths.append([source] + acc[::-1])
                continue
            suffix = acc + [node]
            for parent in reversed(parents[node]):
                stack.append((parent, suffix))
        return paths

    def connected_component(self, start: str) -> Set[str]:
        """Set of nodes reachable from ``start``."""
        seen = {start}
        stack = [start]
        while stack:
            for neighbor in self._adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (for cross-checks)."""
        import networkx as nx

        g = nx.Graph()
        for label, info in self._info.items():
            g.add_node(label, kind=info.kind.value, corpus=info.corpus, role=info.role)
        g.add_edges_from(self.edges())
        return g


def graph_of(nodes: Iterable, edges: Iterable[Tuple[str, str]] = ()) -> MatchGraph:
    """A library graph from ``nodes`` — labels, or ``(label, kind, corpus,
    role)`` tuples — and label ``edges``, added one call at a time."""
    graph = ReferenceGraph()
    for node in nodes:
        if isinstance(node, str):
            graph.add_node(node)
        else:
            graph.add_node(*node)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph.freeze()


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
    def keep_first(self, terms: Sequence[str]) -> List[str]:
        """Terms of a first-corpus document that become nodes."""

    @abstractmethod
    def keep_second(self, terms: Sequence[str]) -> List[str]:
        """Terms of a second-corpus document that become nodes."""


class NoFilter(FilterStrategy):
    """Keep every term of both corpora (Figure 9, "Normal")."""

    name = "normal"

    def prepare(self, first_corpus_terms, second_corpus_terms) -> None:
        return None

    def keep_first(self, terms: Sequence[str]) -> List[str]:
        return list(terms)

    def keep_second(self, terms: Sequence[str]) -> List[str]:
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

    def keep_first(self, terms: Sequence[str]) -> List[str]:
        if self.anchor == "first":
            return list(terms)
        return [t for t in terms if t in self._anchor_vocabulary]

    def keep_second(self, terms: Sequence[str]) -> List[str]:
        if self.anchor == "second":
            return list(terms)
        return [t for t in terms if t in self._anchor_vocabulary]


class TfIdfFilter(FilterStrategy):
    """Keep the top-k TF-IDF terms of every document (Figure 9, "TFIDF")."""

    name = "tfidf"

    def __init__(self) -> None:
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
        return [t for _score, t in scored[:TFIDF_TOP_K]]

    def keep_first(self, terms: Sequence[str]) -> List[str]:
        return self._top_terms(terms, self._idf_first)

    def keep_second(self, terms: Sequence[str]) -> List[str]:
        return self._top_terms(terms, self._idf_second)


def make_string_filter(config: GraphBuilderConfig) -> FilterStrategy:
    """The string filter named by ``config.filter_strategy_name``."""
    if config.filter_strategy_name == "intersect":
        return IntersectFilter()
    if config.filter_strategy_name == "normal":
        return NoFilter()
    if config.filter_strategy_name == "tfidf":
        return TfIdfFilter()
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

    graph = ReferenceGraph()
    first_metadata: Dict[str, str] = {}
    second_metadata: Dict[str, str] = {}
    stats = FilterStatistics()

    # ---- first corpus (Algorithm 1, lines 3-25) -------------------
    role = GraphBuilder._role_of(first)
    for object_id, terms in first_terms:
        label = metadata_label(first, object_id)
        graph.add_node(label, kind=NodeKind.METADATA, corpus="first", role=role)
        first_metadata[object_id] = label
        kept = filter_strategy.keep_first(terms)
        stats.first_total += len(terms)
        stats.first_kept += len(kept)
        column_labels = _column_labels_for(preprocessor, first, object_id, graph)
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
    for object_id, terms in second_terms:
        label = metadata_label(second, object_id)
        graph.add_node(label, kind=NodeKind.METADATA, corpus="second", role=role)
        second_metadata[object_id] = label
        kept = filter_strategy.keep_second(terms)
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
        graph=graph.freeze(),
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
    preprocessor: Preprocessor,
    corpus,
    object_id: str,
    graph: ReferenceGraph,
) -> Dict[str, List[str]]:
    """For tables: map each term of the row to its column node labels.

    Also adds the column metadata nodes to the graph on first use.
    """
    if not isinstance(corpus, Table):
        return {}
    row = corpus[object_id]
    mapping: Dict[str, List[str]] = {}
    for column, value in row.non_null_items():
        col_label = f"{COLUMN_PREFIX}{corpus.name}::{column}"
        graph.add_node(col_label, kind=NodeKind.METADATA, corpus="first", role="column")
        for term in preprocessor.terms(str(value)):
            mapping.setdefault(term, []).append(col_label)
    return mapping


def _connect_taxonomy(graph: ReferenceGraph, taxonomy: Taxonomy, metadata: Dict[str, str]) -> None:
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


# ----------------------------------------------------------------------
# Merges as merge_nodes loops
def bucketing_reference(graph: MatchGraph, buckets: Dict[str, List[str]]) -> MatchGraph:
    """Numeric bucketing: per bucket (label → member labels), add the bucket
    node and merge every member into it."""
    merged = ReferenceGraph.thaw(graph)
    for bucket, members in buckets.items():
        merged.add_node(bucket, kind=NodeKind.DATA, corpus="both", role="term")
        for member in members:
            merged.merge_nodes(bucket, member)
    return merged.freeze()


def embedding_merge_reference(graph: MatchGraph, merger, pairs) -> MatchGraph:
    """The embedding merge over candidate ``pairs``, in order: a similar
    pair merges into its higher-degree node on the graph as merged so far."""
    merged = ReferenceGraph.thaw(graph)
    for a, b in pairs:
        if not (merged.has_node(a) and merged.has_node(b)):
            continue
        va, vb = merger.embeddings.vector(a), merger.embeddings.vector(b)
        if va is None or vb is None or cosine_similarity(va, vb) < merger.threshold:
            continue
        keep, absorb = (a, b) if merged.degree(a) >= merged.degree(b) else (b, a)
        merged.merge_nodes(keep, absorb)
    return merged.freeze()


def merge_identical_neighborhoods_reference(graph: ReferenceGraph) -> int:
    """SSuM's first phase on the dict-of-sets graph: merge data nodes that
    share their whole neighbourhood, regrouping until a fixpoint."""
    merged = 0
    changed = True
    while changed:
        changed = False
        signature: Dict[Tuple[str, ...], List[str]] = {}
        for label in graph.data_nodes():
            signature.setdefault(tuple(sorted(graph.neighbors(label))), []).append(label)
        for key in sorted(signature):
            members = [
                label
                for label in signature[key]
                if graph.has_node(label) and tuple(sorted(graph.neighbors(label))) == key
            ]
            for absorb in members[1:]:
                graph.merge_nodes(members[0], absorb)
                merged += 1
                changed = True
    return merged
