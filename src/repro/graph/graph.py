"""The heterogeneous matching graph.

The graph jointly represents the two corpora (Section II of the paper):

* **data nodes** — pre-processed terms (single tokens and n-grams);
* **metadata nodes** — identifiers of the objects to match (tuples, columns,
  text documents, taxonomy concepts).

Edges are undirected and unweighted; they connect a metadata node to the
terms it contains, a column node to the terms of its active domain, and
(for structured text) related metadata nodes to each other.

The class is a purpose-built adjacency-set graph rather than a wrapper over
networkx: the random-walk generator and the MSP compressor iterate over
neighbour sets billions of times across an experiment sweep, and keeping the
structure minimal (plain dict of sets, plus typed node registries) keeps
those loops fast.  A :meth:`to_networkx` bridge exists for interoperability
and for tests that cross-check shortest-path computations.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np


class NodeKind(str, Enum):
    """Type of a graph node."""

    DATA = "data"
    METADATA = "metadata"


class NodeInfo(NamedTuple):
    """Metadata attached to a node.

    A NamedTuple rather than a frozen dataclass: bulk graph construction
    creates one per node and tuple instantiation is ~3x cheaper than
    ``object.__setattr__``-based frozen-dataclass init, with the same
    immutability, equality, and attribute access.

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
    """Undirected, unweighted graph with typed nodes."""

    def __init__(self) -> None:
        self._adjacency: Dict[str, Set[str]] = {}
        self._info: Dict[str, NodeInfo] = {}
        self._edge_count = 0
        # Structural version: bumped on every topology mutation.  Derived
        # snapshots (the CSR adjacency used by the vectorised walk engine)
        # cache themselves against this counter and rebuild when it moves.
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter of structural mutations (nodes/edges)."""
        return self._version

    # ------------------------------------------------------------------
    # Nodes
    def add_node(
        self,
        label: str,
        kind: NodeKind = NodeKind.DATA,
        corpus: str = "first",
        role: Optional[str] = None,
    ) -> bool:
        """Add a node; returns True if it was new.

        Adding an existing node updates nothing except the ``corpus`` field,
        which becomes ``"both"`` when the node is seen from both corpora —
        that information drives the Intersect filtering statistics.
        """
        if not label:
            raise ValueError("node label must be non-empty")
        if label in self._info:
            existing = self._info[label]
            if existing.corpus != corpus and corpus in ("first", "second"):
                if existing.corpus in ("first", "second") and existing.corpus != corpus:
                    self._info[label] = NodeInfo(
                        label=label, kind=existing.kind, corpus="both", role=existing.role
                    )
            return False
        if role is None:
            role = "term" if kind == NodeKind.DATA else "document"
        self._info[label] = NodeInfo(label=label, kind=kind, corpus=corpus, role=role)
        self._adjacency[label] = set()
        self._version += 1
        return True

    def add_nodes_bulk(
        self,
        labels: Sequence[str],
        kind=NodeKind.DATA,
        corpus="first",
        role=None,
    ) -> int:
        """Add many nodes with a single version bump.

        ``kind``, ``corpus`` and ``role`` may each be a scalar applied to
        every label or a sequence parallel to ``labels``.  Existing labels
        follow the same rules as :meth:`add_node` (no-op except the corpus
        ``"both"`` promotion).  Returns the number of genuinely new nodes.
        """
        n = len(labels)
        if isinstance(labels, np.ndarray):
            labels = labels.tolist()  # iterating an object ndarray is slow
        kinds = [kind] * n if isinstance(kind, NodeKind) else kind
        corpora = [corpus] * n if isinstance(corpus, str) else corpus
        roles = [role] * n if role is None or isinstance(role, str) else role
        if isinstance(kinds, np.ndarray):
            kinds = kinds.tolist()
        if isinstance(roles, np.ndarray):
            roles = roles.tolist()
        if len(kinds) != n or len(corpora) != n or len(roles) != n:
            raise ValueError("kind/corpus/role sequences must match len(labels)")
        info = self._info
        adjacency = self._adjacency
        added = 0
        for label, node_kind, node_corpus, node_role in zip(labels, kinds, corpora, roles):
            existing = info.get(label)
            if existing is not None:
                if (
                    node_corpus in ("first", "second")
                    and existing.corpus in ("first", "second")
                    and existing.corpus != node_corpus
                ):
                    info[label] = NodeInfo(
                        label=label, kind=existing.kind, corpus="both", role=existing.role
                    )
                continue
            if not label:
                raise ValueError("node label must be non-empty")
            if node_role is None:
                node_role = "term" if node_kind == NodeKind.DATA else "document"
            info[label] = NodeInfo(
                label=label, kind=node_kind, corpus=node_corpus, role=node_role
            )
            adjacency[label] = set()
            added += 1
        if added:
            self._version += 1
        return added

    def has_node(self, label: str) -> bool:
        return label in self._info

    def remove_node(self, label: str) -> None:
        """Remove a node and all its incident edges."""
        if label not in self._info:
            raise KeyError(f"no such node: {label!r}")
        for neighbor in list(self._adjacency[label]):
            self._adjacency[neighbor].discard(label)
            self._edge_count -= 1
        del self._adjacency[label]
        del self._info[label]
        self._version += 1

    def node_info(self, label: str) -> NodeInfo:
        return self._info[label]

    def node_kind(self, label: str) -> NodeKind:
        return self._info[label].kind

    def is_metadata(self, label: str) -> bool:
        return self._info[label].kind == NodeKind.METADATA

    def is_data(self, label: str) -> bool:
        return self._info[label].kind == NodeKind.DATA

    # ------------------------------------------------------------------
    # Edges
    def add_edge(self, u: str, v: str) -> bool:
        """Add an undirected edge; returns True if it was new.

        Both endpoints must already exist; self-loops are ignored.
        """
        if u not in self._info or v not in self._info:
            missing = u if u not in self._info else v
            raise KeyError(f"cannot add edge, node not in graph: {missing!r}")
        if u == v:
            return False
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._edge_count += 1
        self._version += 1
        return True

    def add_edges_bulk(
        self,
        u_labels: Sequence[str],
        v_labels: Sequence[str],
        assume_unique: bool = False,
    ) -> int:
        """Add undirected edges in bulk with a single version bump.

        Self-loops and duplicates — within the batch and against edges
        already in the graph — are ignored.  Batch-internal duplicates are
        eliminated with one :func:`np.unique` over packed (u, v) id pairs
        (:func:`dedup_edge_ids`) instead of a set probe per edge.  Both
        endpoints of every pair must already exist.  Returns the number of
        new edges.

        ``assume_unique`` skips the encode-and-dedup pass for callers (the
        bulk graph builder) that already hold pairs deduped in id space;
        passing duplicate pairs with it set corrupts the edge count.
        """
        if len(u_labels) != len(v_labels):
            raise ValueError("u_labels and v_labels must have the same length")
        if len(u_labels) == 0:
            return 0
        if assume_unique:
            if isinstance(u_labels, np.ndarray):
                u_labels = u_labels.tolist()
            if isinstance(v_labels, np.ndarray):
                v_labels = v_labels.tolist()
            pairs = zip(u_labels, v_labels)
        else:
            index = {label: i for i, label in enumerate(self._info)}
            try:
                u = np.fromiter(
                    (index[label] for label in u_labels), dtype=np.int64, count=len(u_labels)
                )
                v = np.fromiter(
                    (index[label] for label in v_labels), dtype=np.int64, count=len(v_labels)
                )
            except KeyError as exc:
                raise KeyError(
                    f"cannot add edge, node not in graph: {exc.args[0]!r}"
                ) from None
            lo, hi = dedup_edge_ids(u, v, len(index))
            if lo.size == 0:
                return 0
            labels = list(self._info)
            pairs = ((labels[a], labels[b]) for a, b in zip(lo.tolist(), hi.tolist()))
        adjacency = self._adjacency
        # A fresh graph cannot contain any of the pairs, so the per-pair
        # membership probe is only paid when there is something to probe.
        check_existing = self._edge_count > 0
        added = 0
        try:
            for a, b in pairs:
                if a == b:
                    continue
                neighbors = adjacency[a]
                other = adjacency[b]
                if check_existing and b in neighbors:
                    continue
                neighbors.add(b)
                other.add(a)
                added += 1
        except KeyError as exc:
            # assume_unique defers label validation to the insert loop;
            # account for the pairs added before the bad one.
            if added:
                self._edge_count += added
                self._version += 1
            raise KeyError(f"cannot add edge, node not in graph: {exc.args[0]!r}") from None
        if added:
            self._edge_count += added
            self._version += 1
        return added

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def remove_edge(self, u: str, v: str) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"no such edge: ({u!r}, {v!r})")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_count -= 1
        self._version += 1

    def neighbors(self, label: str) -> Set[str]:
        """The neighbour set of a node (do not mutate)."""
        return self._adjacency[label]

    def degree(self, label: str) -> int:
        return len(self._adjacency[label])

    # ------------------------------------------------------------------
    # Views and statistics
    def nodes(self, kind: Optional[NodeKind] = None) -> List[str]:
        if kind is None:
            return list(self._info)
        return [label for label, info in self._info.items() if info.kind == kind]

    def data_nodes(self) -> List[str]:
        return self.nodes(NodeKind.DATA)

    def metadata_nodes(self, corpus: Optional[str] = None, role: Optional[str] = None) -> List[str]:
        result = []
        for label, info in self._info.items():
            if info.kind != NodeKind.METADATA:
                continue
            if corpus is not None and info.corpus != corpus:
                continue
            if role is not None and info.role != role:
                continue
            result.append(label)
        return result

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Iterate each undirected edge exactly once."""
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def num_nodes(self) -> int:
        return len(self._info)

    def num_edges(self) -> int:
        return self._edge_count

    def __len__(self) -> int:
        return len(self._info)

    def __contains__(self, label: str) -> bool:
        return label in self._info

    def average_degree(self) -> float:
        if not self._info:
            return 0.0
        return 2.0 * self._edge_count / len(self._info)

    # ------------------------------------------------------------------
    # Algorithms used by expansion / compression
    def remove_sink_nodes(self, protect_metadata: bool = True) -> int:
        """Remove nodes of degree <= 1 (Algorithm 2, cleaning step).

        Metadata nodes are preserved by default because they are the objects
        to match regardless of their connectivity.  Returns the number of
        removed nodes.
        """
        removed = 0
        to_remove = []
        for label in self._info:
            if protect_metadata and self.is_metadata(label):
                continue
            if self.degree(label) <= 1:
                to_remove.append(label)
        for label in to_remove:
            self.remove_node(label)
            removed += 1
        return removed

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
                        return self._reconstruct(parents, target)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    @staticmethod
    def _reconstruct(parents: Dict[str, Optional[str]], target: str) -> List[str]:
        path = [target]
        current: Optional[str] = parents[target]
        while current is not None:
            path.append(current)
            current = parents[current]
        path.reverse()
        return path

    def all_shortest_paths(self, source: str, target: str, limit: int = 64) -> List[List[str]]:
        """All shortest paths between two nodes (BFS DAG enumeration).

        ``limit`` caps the number of enumerated paths so that extremely
        dense regions cannot blow up the enumeration.  MSP/SSP compression
        does not enumerate: it takes the exact union of the shortest-path
        DAG (:func:`repro.graph.csr.shortest_path_dag_union`).
        """
        if source not in self._info or target not in self._info:
            raise KeyError("both endpoints must be in the graph")
        if source == target:
            return [[source]]
        # BFS recording all parents at the previous level.
        level = {source: 0}
        parents: Dict[str, List[str]] = {source: []}
        frontier = [source]
        found_level: Optional[int] = None
        depth = 0
        while frontier and found_level is None:
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
            if target in level and level[target] == depth:
                found_level = depth
            frontier = next_frontier
        if target not in parents:
            return []
        # Enumerate paths backwards from the target with an explicit stack:
        # recursive backtracking overflows the interpreter stack on paths
        # longer than the recursion limit (e.g. chain-like graphs).  Parents
        # are pushed in reverse so paths come out in the same depth-first
        # order the recursive version produced.
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
            node = stack.pop()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen

    # ------------------------------------------------------------------
    # Construction helpers
    def copy(self) -> "MatchGraph":
        clone = MatchGraph()
        clone._info = dict(self._info)
        clone._adjacency = {k: set(v) for k, v in self._adjacency.items()}
        clone._edge_count = self._edge_count
        # Preserve the structural version: derived-snapshot caches key on it,
        # and a clone restarting at 0 would alias a later mutated state of
        # the clone with the original's cached snapshots.
        clone._version = self._version
        return clone

    def subgraph(self, labels: Iterable[str]) -> "MatchGraph":
        """Induced subgraph on ``labels`` (unknown labels are ignored)."""
        keep = {label for label in labels if label in self._info}
        sub = MatchGraph()
        for label in keep:
            info = self._info[label]
            sub.add_node(label, kind=info.kind, corpus=info.corpus, role=info.role)
        for label in keep:
            for neighbor in self._adjacency[label]:
                if neighbor in keep and label < neighbor:
                    sub.add_edge(label, neighbor)
        return sub

    def merge_nodes(self, keep: str, absorb: str) -> None:
        """Merge node ``absorb`` into node ``keep``.

        All edges of ``absorb`` are redirected to ``keep``; used by the
        node-merging techniques of Section II-C (bucketing, synonym merge).
        """
        if keep == absorb:
            return
        if keep not in self._info or absorb not in self._info:
            raise KeyError("both nodes must exist to be merged")
        for neighbor in list(self._adjacency[absorb]):
            if neighbor != keep:
                self.add_edge(keep, neighbor)
        self.remove_node(absorb)

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (for tests and analysis)."""
        import networkx as nx

        g = nx.Graph()
        for label, info in self._info.items():
            g.add_node(label, kind=info.kind.value, corpus=info.corpus, role=info.role)
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MatchGraph(nodes={self.num_nodes()}, edges={self.num_edges()})"
