"""Knowledge-base substrate used by graph expansion (Algorithm 2).

The paper plugs ConceptNet, DBpedia, and WordNet into the expansion step.
Offline, we provide an in-memory triple store with the same lookup
interface, plus synthetic generators that build entity-centric
(DBpedia-like) and concept-centric (ConceptNet-like) resources whose
signal-to-noise structure matches the paper's observations (few useful
relations among many irrelevant ones).
"""

from repro.kb.knowledge_base import InMemoryKnowledgeBase, KnowledgeBase, Triple
from repro.kb.conceptnet import build_concept_kb
from repro.kb.dbpedia import build_entity_kb

__all__ = [
    "KnowledgeBase",
    "InMemoryKnowledgeBase",
    "Triple",
    "build_concept_kb",
    "build_entity_kb",
]
