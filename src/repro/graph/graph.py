"""The heterogeneous matching graph.

The graph jointly represents the two corpora (Section II of the paper):

* **data nodes** — pre-processed terms (single tokens and n-grams);
* **metadata nodes** — identifiers of the objects to match (tuples, columns,
  text documents, taxonomy concepts).

Edges are undirected and unweighted; they connect a metadata node to the
terms it contains, a column node to the terms of its active domain, and
(for structured text) related metadata nodes to each other.

:class:`MatchGraph` is immutable and holds one form of the graph from the
builder to the serving index: a node registry (labels, and per node its
kind, corpus and role) and the CSR adjacency arrays ``indptr`` and
``indices``.  A node's id is its position in the registry.  Every stage of
the fit — merging, expansion, compression — and every incremental delta
returns a new graph made by :meth:`MatchGraph.from_edges`,
:meth:`~MatchGraph.append` or :meth:`~MatchGraph.keep`.  The walk engines,
the compression BFS and neighbourhood blocking read the arrays as they
are, and the serving index saves and memory-maps them.  The dict-of-sets
graph the test oracles mutate label by label lives in
``tests/oracles/graph.py``.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class NodeKind(str, Enum):
    """Type of a graph node."""

    DATA = "data"
    METADATA = "metadata"


class NodeInfo(NamedTuple):
    """The registry entry of one node.

    Attributes
    ----------
    label:
        The node label (term text for data nodes, document/tuple/column id
        for metadata nodes).
    kind:
        Data or metadata.
    corpus:
        Which corpus introduced the node: "first", "second", "both", or
        "external" for nodes added by graph expansion; columns are "first".
    role:
        Finer-grained role for metadata nodes: "document", "tuple",
        "column", "concept"; data nodes use "term"; expansion nodes use
        "external".
    """

    label: str
    kind: NodeKind
    corpus: str = "first"
    role: str = "term"


def dedup_edge_ids(
    u: np.ndarray, v: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise undirected id pairs and drop duplicates and self-loops.

    Each pair is ordered ``(lo, hi)`` and packed into a single int64
    (``lo * num_nodes + hi``) so one :func:`np.unique` replaces a set probe
    per edge.  Returns the surviving pairs as ``(lo, hi)`` int64 arrays in
    first-occurrence order.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    if not keep.all():
        lo = lo[keep]
        hi = hi[keep]
    if lo.size == 0:
        return lo, hi
    packed = lo * np.int64(num_nodes) + hi
    _values, first = np.unique(packed, return_index=True)
    first.sort()
    return lo[first], hi[first]


class MatchGraph:
    """Immutable undirected, unweighted graph with typed nodes.

    Attributes
    ----------
    labels, kinds, corpora, roles:
        The node registry: entry ``i`` describes node ``i``
        (see :class:`NodeInfo`).
    indptr:
        ``int64`` array of shape ``(num_nodes + 1,)``; the neighbours of
        node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int32`` array of concatenated neighbour ids, each row sorted.

    The constructor takes the arrays as they are (a loaded index passes
    its memory maps); :meth:`from_edges` builds them from edge id pairs.
    """

    def __init__(
        self,
        labels: Sequence[str],
        kinds: Sequence[NodeKind],
        corpora: Sequence[str],
        roles: Sequence[str],
        indptr: np.ndarray,
        indices: np.ndarray,
    ):
        self.labels: List[str] = list(labels)
        self.kinds: List[NodeKind] = list(kinds)
        self.corpora: List[str] = list(corpora)
        self.roles: List[str] = list(roles)
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[str],
        kinds: Sequence[NodeKind],
        corpora: Sequence[str],
        roles: Sequence[str],
        edge_u,
        edge_v,
    ) -> "MatchGraph":
        """The graph over a node registry and undirected edge id pairs.

        Self-loops and duplicate pairs (in either orientation) are dropped
        by :func:`dedup_edge_ids`; one ``lexsort`` then lays out every row
        sorted by neighbour id.
        """
        n = len(labels)
        lo, hi = dedup_edge_ids(edge_u, edge_v, n)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(labels, kinds, corpora, roles, indptr, dst[order].astype(np.int32))

    # ------------------------------------------------------------------
    # Nodes
    @cached_property
    def ids(self) -> Dict[str, int]:
        """Node label → id."""
        return {label: i for i, label in enumerate(self.labels)}

    def num_nodes(self) -> int:
        return len(self.labels)

    def num_edges(self) -> int:
        return int(self.indices.size) // 2

    def __contains__(self, label: str) -> bool:
        return label in self.ids

    def has_node(self, label: str) -> bool:
        return label in self.ids

    def node_info(self, label: str) -> NodeInfo:
        i = self.ids[label]
        return NodeInfo(label, self.kinds[i], self.corpora[i], self.roles[i])

    def nodes(self, kind: Optional[NodeKind] = None) -> List[str]:
        if kind is None:
            return list(self.labels)
        return [label for label, k in zip(self.labels, self.kinds) if k == kind]

    def data_nodes(self) -> List[str]:
        return self.nodes(NodeKind.DATA)

    def metadata_nodes(self, corpus: Optional[str] = None, role: Optional[str] = None) -> List[str]:
        return [
            label
            for label, kind, node_corpus, node_role in zip(
                self.labels, self.kinds, self.corpora, self.roles
            )
            if kind == NodeKind.METADATA
            and (corpus is None or node_corpus == corpus)
            and (role is None or node_role == role)
        ]

    def metadata_mask(self) -> np.ndarray:
        """A bool array, True at every metadata node."""
        return np.fromiter(
            (kind == NodeKind.METADATA for kind in self.kinds), dtype=bool, count=len(self.kinds)
        )

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        """The ``int32`` ids of ``labels`` (each must be a node)."""
        ids = self.ids
        return np.fromiter((ids[label] for label in labels), dtype=np.int32, count=len(labels))

    # ------------------------------------------------------------------
    # Edges
    def degrees(self) -> np.ndarray:
        """The degree of every node as an ``int64`` array."""
        return np.diff(self.indptr)

    def degree(self, label: str) -> int:
        i = self.ids[label]
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, label: str) -> List[str]:
        """The neighbour labels of a node, in id order."""
        i = self.ids[label]
        labels = self.labels
        return [labels[j] for j in self.indices[self.indptr[i] : self.indptr[i + 1]].tolist()]

    def edge_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every undirected edge once, as ``(lo, hi)`` int64 id arrays in
        ``(lo, hi)`` order."""
        src = np.repeat(np.arange(len(self.labels), dtype=np.int64), np.diff(self.indptr))
        dst = np.asarray(self.indices, dtype=np.int64)
        upper = src < dst
        return src[upper], dst[upper]

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Each undirected edge once, as a label pair ``(u, v)`` with ``u < v``."""
        labels = self.labels
        for a, b in zip(*(ids.tolist() for ids in self.edge_ids())):
            u, v = labels[a], labels[b]
            yield (u, v) if u < v else (v, u)

    # ------------------------------------------------------------------
    # New graphs
    def append(
        self,
        labels: Sequence[str],
        kinds: Sequence[NodeKind],
        corpora: Sequence[str],
        roles: Sequence[str],
        edge_u=(),
        edge_v=(),
    ) -> "MatchGraph":
        """This graph with new nodes after its own (ids ``num_nodes()`` on)
        and new edges between any ids of the grown graph.

        The labels must be new; an edge the graph already has is kept once.
        """
        lo, hi = self.edge_ids()
        return MatchGraph.from_edges(
            self.labels + list(labels),
            self.kinds + list(kinds),
            self.corpora + list(corpora),
            self.roles + list(roles),
            np.concatenate([lo, np.asarray(edge_u, dtype=np.int64)]),
            np.concatenate([hi, np.asarray(edge_v, dtype=np.int64)]),
        )

    def keep(self, mask: np.ndarray, edge_u=None, edge_v=None) -> "MatchGraph":
        """The graph on the nodes ``mask`` selects, in this graph's order.

        Its edges are the pairs ``(edge_u, edge_v)`` (ids of this graph;
        every edge when omitted) whose two ends ``mask`` selects.
        """
        mask = np.asarray(mask, dtype=bool)
        if edge_u is None:
            edge_u, edge_v = self.edge_ids()
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        new_id = np.cumsum(mask) - 1
        ends = mask[edge_u] & mask[edge_v]
        kept = np.flatnonzero(mask).tolist()
        return MatchGraph.from_edges(
            [self.labels[i] for i in kept],
            [self.kinds[i] for i in kept],
            [self.corpora[i] for i in kept],
            [self.roles[i] for i in kept],
            new_id[edge_u[ends]],
            new_id[edge_v[ends]],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MatchGraph(nodes={self.num_nodes()}, edges={self.num_edges()})"
