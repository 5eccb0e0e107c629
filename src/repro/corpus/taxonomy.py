"""Taxonomy ("structured text") substrate.

The text-to-structured-text task of the paper matches audit documents to
nodes of a concept taxonomy.  A taxonomy is a forest of :class:`ConceptNode`
objects; each node carries a textual label and the hierarchical (parent)
relation is modelled as metadata-metadata edges in the graph (Algorithm 1,
lines 12-16, and Section II-A).

Ground-truth paths (root → node) are used by the Exact and Node score
metrics of Section V-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


@dataclass
class ConceptNode:
    """A node of the taxonomy.

    Attributes
    ----------
    node_id:
        Unique identifier (metadata-node label in the graph).
    label:
        Human-readable concept text, e.g. ``"Plan Do Check Act Steps"``.
    parent_id:
        Identifier of the parent concept, or ``None`` for roots.
    """

    node_id: str
    label: str
    parent_id: Optional[str] = None
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("ConceptNode requires a non-empty node_id")
        if not self.label:
            raise ValueError(f"ConceptNode {self.node_id!r} requires a non-empty label")


class Taxonomy:
    """A forest of concepts with parent links and path utilities."""

    def __init__(self, nodes: Iterable[ConceptNode] = (), name: str = "taxonomy"):
        self.name = name
        self._nodes: Dict[str, ConceptNode] = {}
        self._children: Dict[str, List[str]] = {}
        self._order: List[str] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    def add(self, node: ConceptNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate concept id: {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._order.append(node.node_id)
        self._children.setdefault(node.node_id, [])
        if node.parent_id is not None:
            self._children.setdefault(node.parent_id, []).append(node.node_id)

    def add_concept(
        self, node_id: str, label: str, parent_id: Optional[str] = None, **metadata: str
    ) -> ConceptNode:
        node = ConceptNode(node_id=node_id, label=label, parent_id=parent_id, metadata=dict(metadata))
        self.add(node)
        return node

    def validate(self) -> None:
        """Check that all parent references resolve and there are no cycles."""
        for node in self:
            if node.parent_id is not None and node.parent_id not in self._nodes:
                raise ValueError(
                    f"concept {node.node_id!r} references unknown parent {node.parent_id!r}"
                )
        for node in self:
            seen = set()
            current: Optional[str] = node.node_id
            while current is not None:
                if current in seen:
                    raise ValueError(f"cycle detected in taxonomy at {current!r}")
                seen.add(current)
                parent = self._nodes[current].parent_id
                current = parent

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ConceptNode]:
        return iter(self._nodes[node_id] for node_id in self._order)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __getitem__(self, node_id: str) -> ConceptNode:
        return self._nodes[node_id]

    def get(self, node_id: str, default: Optional[ConceptNode] = None) -> Optional[ConceptNode]:
        return self._nodes.get(node_id, default)

    @property
    def node_ids(self) -> List[str]:
        return list(self._order)

    def roots(self) -> List[ConceptNode]:
        return [n for n in self if n.parent_id is None]

    def children(self, node_id: str) -> List[ConceptNode]:
        return [self._nodes[c] for c in self._children.get(node_id, [])]

    def parent(self, node_id: str) -> Optional[ConceptNode]:
        parent_id = self._nodes[node_id].parent_id
        if parent_id is None:
            return None
        return self._nodes.get(parent_id)

    # ------------------------------------------------------------------
    # Path utilities for the Exact / Node score metrics
    def path_to_root(self, node_id: str) -> List[str]:
        """Node ids from the root down to ``node_id`` (inclusive)."""
        if node_id not in self._nodes:
            raise KeyError(f"no such concept: {node_id!r}")
        path: List[str] = []
        current: Optional[str] = node_id
        while current is not None:
            path.append(current)
            current = self._nodes[current].parent_id
        path.reverse()
        return path

    def label_path(self, node_id: str) -> List[str]:
        """Concept labels from the root down to ``node_id``."""
        return [self._nodes[n].label for n in self.path_to_root(node_id)]

    def depth(self, node_id: str) -> int:
        """Depth of ``node_id`` (roots have depth 1)."""
        return len(self.path_to_root(node_id))

    def max_depth(self) -> int:
        return max((self.depth(n) for n in self._order), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Taxonomy(name={self.name!r}, size={len(self)})"
