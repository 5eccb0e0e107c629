"""Corpus substrate: text documents, relational tables, and taxonomies.

The paper matches documents between two *corpora*.  A corpus is one of:

* a :class:`TextCorpus` of :class:`Document` objects (sentences/paragraphs),
* a relational :class:`Table` whose documents are :class:`Row` objects,
* a :class:`Taxonomy` of hierarchical :class:`ConceptNode` objects
  ("structured text").
"""

from repro.corpus.documents import Document, TextCorpus
from repro.corpus.table import Column, Row, Table
from repro.corpus.taxonomy import ConceptNode, Taxonomy
from repro.corpus.serialization import serialize_row

__all__ = [
    "Document",
    "TextCorpus",
    "Column",
    "Row",
    "Table",
    "ConceptNode",
    "Taxonomy",
    "serialize_row",
]
