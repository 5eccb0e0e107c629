"""In-memory knowledge base (triple store) for graph expansion.

A knowledge base maps a *term* to the set of terms it is related to; the
expansion algorithm only needs undirected neighbourhood lookups, but triples
keep the predicate so applications can inspect or filter relations (the
paper cites relations such as ``starringOf(Willis, Pulp Fiction)``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set


@dataclass(frozen=True)
class Triple:
    """A (subject, predicate, object) relation."""

    subject: str
    predicate: str
    object: str

    def __post_init__(self) -> None:
        if not self.subject or not self.predicate or not self.object:
            raise ValueError("triple fields must be non-empty")


class KnowledgeBase(ABC):
    """Lookup interface consumed by :func:`repro.graph.expansion.expand_graph`."""

    @abstractmethod
    def related(self, term: str) -> List[str]:
        """All terms related to ``term`` (in either triple direction)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored triples."""


class InMemoryKnowledgeBase(KnowledgeBase):
    """Dictionary-backed triple store with case-insensitive lookup."""

    def __init__(self, name: str = "kb", triples: Iterable[Triple] = ()):
        self.name = name
        self._triples: List[Triple] = []
        self._neighbors: Dict[str, Set[str]] = {}
        for triple in triples:
            self.add(triple)

    # ------------------------------------------------------------------
    @staticmethod
    def _norm(term: str) -> str:
        return term.strip().lower()

    def add(self, triple: Triple) -> None:
        subject = self._norm(triple.subject)
        obj = self._norm(triple.object)
        if subject == obj:
            return
        self._triples.append(triple)
        self._neighbors.setdefault(subject, set()).add(obj)
        self._neighbors.setdefault(obj, set()).add(subject)

    def add_relation(self, subject: str, predicate: str, obj: str) -> None:
        self.add(Triple(subject=subject, predicate=predicate, object=obj))

    # ------------------------------------------------------------------
    def related(self, term: str) -> List[str]:
        """Neighbours of ``term`` sorted for deterministic expansion order."""
        neighbors = self._neighbors.get(self._norm(term))
        if not neighbors:
            return []
        return sorted(neighbors)

    def terms(self) -> List[str]:
        return sorted(self._neighbors)

    def triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def merge(self, other: "InMemoryKnowledgeBase") -> "InMemoryKnowledgeBase":
        """Return a new KB with the union of the triples of both."""
        merged = InMemoryKnowledgeBase(name=f"{self.name}+{other.name}")
        for triple in self._triples:
            merged.add(triple)
        for triple in other._triples:
            merged.add(triple)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"InMemoryKnowledgeBase(name={self.name!r}, triples={len(self)})"
