"""Incremental fit: route corpus deltas through the warm pipeline paths.

Instead of rebuilding the graph and retraining embeddings from scratch,
``add_documents`` / ``add_records`` / ``remove``:

1. append the delta's metadata and term nodes and their edges to the
   :class:`~repro.graph.graph.MatchGraph`, which gives a new graph
   (honouring the filter strategy frozen at fit time — an intersect
   filter's anchor side cannot flip mid-stream); ``remove`` masks nodes
   out the same way,
2. regenerate random walks only for start nodes inside the touched
   neighbourhood (the new nodes and their direct neighbours), joined into
   one flat id corpus
   (:class:`~repro.embeddings.vocab.IdCorpus`), and
3. warm-start Word2Vec fine-tuning on that delta walk corpus — existing
   embedding rows are kept, new vocabulary rows are appended.

The result converges to a full refit's ranking quality at a fraction of
the cost; the benchmark suite asserts both properties.  A delta whose
refresh fails leaves the pipeline's previous graph in place.

One documented approximation: when the delta lands on the intersect
anchor side, its *new* terms cannot retroactively pull edges from the
other corpus (those texts are not retained after fit), so freshly added
anchor terms connect only to the delta's own objects.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import PipelineError
from repro.embeddings.vocab import IdCorpus
from repro.graph.builder import COLUMN_PREFIX, CONCEPT_PREFIX, DOC_PREFIX, ROW_PREFIX
from repro.graph.csr import gather_neighbors
from repro.graph.graph import NodeKind
from repro.graph.walk_engine import make_walk_engine
from repro.utils.rng import derive_rng

_ROLE_BY_PREFIX = {
    ROW_PREFIX: "tuple",
    DOC_PREFIX: "document",
    CONCEPT_PREFIX: "concept",
}


def _label_prefix(mapping: Dict[str, str], side: str) -> str:
    """Recover the metadata label prefix of a side from its id → label map."""
    for object_id, label in mapping.items():
        if label.endswith(object_id):
            return label[: len(label) - len(object_id)]
    raise PipelineError(
        f"cannot determine the metadata label scheme of the {side} corpus; "
        "incremental fit needs at least one object on that side from fit time"
    )


def _coerce_documents(documents: Iterable) -> List[Tuple[str, str]]:
    """Accept Document objects or ``(doc_id, text)`` pairs."""
    pairs = []
    for doc in documents:
        if hasattr(doc, "doc_id") and hasattr(doc, "text"):
            pairs.append((str(doc.doc_id), doc.text))
        else:
            doc_id, text = doc
            pairs.append((str(doc_id), text))
    return pairs


def _coerce_records(records: Iterable) -> List[Tuple[str, Dict[str, object]]]:
    """Accept Row objects or ``(row_id, {column: value})`` pairs."""
    out = []
    for record in records:
        if hasattr(record, "row_id") and hasattr(record, "values"):
            out.append((str(record.row_id), dict(record.values)))
        else:
            row_id, values = record
            out.append((str(row_id), dict(values)))
    return out


# ----------------------------------------------------------------------
# Graph deltas
def add_documents(pipeline, documents: Iterable, side: str = "second") -> List[str]:
    """Splice new text documents into a fitted pipeline.

    Returns the metadata labels of the added documents.  ``documents`` may
    be :class:`~repro.corpus.documents.Document` objects or
    ``(doc_id, text)`` pairs.
    """
    preprocessor = pipeline._graph_builder()._preprocessor
    objects = [
        (doc_id, preprocessor.terms(text), {})
        for doc_id, text in _coerce_documents(documents)
    ]
    return _apply_delta(pipeline, side, objects)


def add_records(pipeline, records: Iterable, side: str = "second") -> List[str]:
    """Splice new table rows into a fitted pipeline.

    Returns the metadata labels of the added rows.  ``records`` may be
    :class:`~repro.corpus.table.Row` objects or ``(row_id, values_dict)``
    pairs.  Terms also connect to the side's column nodes when the row's
    columns were present at fit time; cells of unseen columns still feed
    the row's own term edges.
    """
    preprocessor = pipeline._graph_builder()._preprocessor
    objects = []
    for row_id, values in _coerce_records(records):
        items = [(col, value) for col, value in values.items() if value is not None]
        terms = preprocessor.terms_of_values([str(value) for _, value in items])
        per_column = {
            col: preprocessor.terms(str(value)) for col, value in items
        }
        objects.append((row_id, terms, per_column))
    return _apply_delta(pipeline, side, objects)


def remove(pipeline, object_ids: Iterable[str], side: str = "second") -> List[str]:
    """Remove objects (and their metadata nodes) from a fitted pipeline.

    Term nodes stay — other objects may share them — and the removed
    labels keep their (now unreachable) embedding rows.  Returns the
    removed metadata labels.
    """
    built = pipeline.state.built
    mapping = built.metadata(side)
    removed = []
    with pipeline.timings.measure("incremental_remove"):
        try:
            for object_id in object_ids:
                object_id = str(object_id)
                label = mapping.pop(object_id, None)
                if label is None:
                    raise PipelineError(
                        f"unknown {side}-side object id {object_id!r}; nothing removed "
                        "for it (ids removed before the error have been applied)"
                    )
                removed.append(label)
        finally:
            graph = built.graph
            keep = np.ones(graph.num_nodes(), dtype=bool)
            keep[[graph.ids[label] for label in removed if label in graph]] = False
            if not keep.all():
                built.graph = graph.keep(keep)
    return removed


def _apply_delta(pipeline, side, objects) -> List[str]:
    """Insert ``(object_id, terms, per_column_terms)`` objects, then refresh."""
    state = pipeline.state
    built = state.built
    mapping = built.metadata(side)
    filter_name = pipeline.config.builder.filter_strategy_name
    if filter_name == "tfidf":
        raise PipelineError(
            "incremental fit is not supported with the tfidf filter strategy: "
            "adding documents changes every term's document frequency, which "
            "would invalidate the fit-time keep/drop decisions — refit instead"
        )
    # An intersect filter froze which side anchors the shared-term test at
    # fit time; only that side may introduce new term nodes afterwards.
    allow_new_terms = filter_name == "normal" or (
        filter_name == "intersect" and side == built.intersect_anchor
    )
    prefix = _label_prefix(mapping, side)
    role = _ROLE_BY_PREFIX.get(prefix, "document")
    graph = built.graph
    # Check the whole batch before the first mutation: a rejected batch
    # must leave no id mapped without a graph node and an embedding row.
    batch_ids = set()
    for object_id, _terms, _per_column in objects:
        object_id = str(object_id)
        if object_id in batch_ids or object_id in mapping or f"{prefix}{object_id}" in graph:
            raise PipelineError(
                f"{side}-side object id {object_id!r} already exists or repeats in "
                "this batch; remove() it first to replace its contents"
            )
        batch_ids.add(object_id)

    column_labels = _column_labels_of(graph, side) if role == "tuple" else {}

    new_labels: List[str] = []
    with pipeline.timings.measure("incremental_graph"):
        # New nodes get the ids after the graph's own, in batch order: per
        # object its metadata node, then its new terms.
        added: Dict[str, int] = {}
        node_kinds: List[NodeKind] = []
        node_corpora: List[str] = []
        node_roles: List[str] = []
        edges_u: List[int] = []
        edges_v: List[int] = []

        def new_node(label: str, kind: NodeKind, node_role: str) -> int:
            added[label] = graph.num_nodes() + len(added)
            node_kinds.append(kind)
            node_corpora.append(side)
            node_roles.append(node_role)
            return added[label]

        for object_id, terms, per_column in objects:
            object_id = str(object_id)
            label = f"{prefix}{object_id}"
            meta_id = new_node(label, NodeKind.METADATA, role)
            kept_terms: Dict[str, int] = {}
            for term in terms:
                term_id = graph.ids.get(term, added.get(term))
                if term_id is None:
                    if not allow_new_terms:
                        continue
                    term_id = new_node(term, NodeKind.DATA, "term")
                kept_terms[term] = term_id
                edges_u.append(meta_id)
                edges_v.append(term_id)
            for column, col_terms in per_column.items():
                col_label = column_labels.get(column)
                if col_label is None:
                    continue
                for term in col_terms:
                    if term in kept_terms:
                        edges_u.append(graph.ids[col_label])
                        edges_v.append(kept_terms[term])
            mapping[object_id] = label
            new_labels.append(label)
        built.graph = graph.append(
            list(added), node_kinds, node_corpora, node_roles, edges_u, edges_v
        )

    pipeline._delta_count += 1
    try:
        _refresh_embeddings(pipeline, new_labels)
    except BaseException:
        # Roll the delta back: a failed refresh (e.g. an index saved
        # without output vectors) must leave no node, edge or mapping
        # without embedding rows behind — a retried delta or a subsequent
        # match() would see a half-applied batch.
        built.graph = graph
        for object_id, _terms, _per_column in objects:
            mapping.pop(str(object_id), None)
        pipeline._delta_count -= 1
        raise
    return new_labels


def _column_labels_of(graph, side: str) -> Dict[str, str]:
    """Map fit-time column names of a side to their graph labels."""
    labels: Dict[str, str] = {}
    for label in graph.metadata_nodes(corpus=side, role="column"):
        body = label[len(COLUMN_PREFIX):]
        if "::" in body:
            labels[body.split("::", 1)[1]] = label
    return labels


# ----------------------------------------------------------------------
# Walk regeneration + warm-started training
def _refresh_embeddings(pipeline, new_labels: Sequence[str]) -> None:
    """Re-walk the touched neighbourhood and fine-tune the model on it.

    The walks are joined into one :class:`~repro.embeddings.vocab.IdCorpus`
    inside the walk timer, so no per-walk array lives through fine-tuning.
    """
    if not new_labels:
        return
    state = pipeline.state
    model = state.model
    if model._output_vectors is None:
        raise PipelineError(
            "this index holds no output vectors ('w2v_output'); incremental "
            "fit needs them to continue training — refit and save it again"
        )
    graph = state.built.graph
    config = pipeline.config

    with pipeline.timings.measure("incremental_walks"):
        # The new nodes and their direct neighbours: the objects that
        # share a term with the delta, and the delta's terms.
        touched = np.zeros(graph.num_nodes(), dtype=bool)
        new_ids = np.array([graph.ids[label] for label in new_labels], dtype=np.int64)
        touched[new_ids] = True
        touched[gather_neighbors(graph, new_ids)[1]] = True
        start_labels = [graph.labels[i] for i in np.flatnonzero(touched)]
        walk_config = dataclasses.replace(config.walks, start_nodes=start_labels)
        engine = make_walk_engine(graph, walk_config)
        seed = derive_rng(pipeline.seed, f"walks-delta-{pipeline._delta_count}")
        walks = IdCorpus.concatenate(engine.iter_walks(seed=seed))

    with pipeline.timings.measure("incremental_word2vec"):
        freeze = config.incremental.freeze_distant
        old_size = len(model.vocab)
        if freeze:
            # Delta walks also traverse distant nodes; snapshot the matrices
            # so their rows can be pinned back afterwards (interference
            # confinement — see IncrementalConfig.freeze_distant).
            snapshot_in = np.array(model._input_vectors, copy=True)
            snapshot_out = np.array(model._output_vectors, copy=True)
        model.fine_tune(walks, labels=graph.labels)
        if freeze:
            tunable = np.zeros(old_size, dtype=bool)
            for label in start_labels:
                token_id = model.vocab.id_of(label)
                if token_id is not None and token_id < old_size:
                    tunable[token_id] = True
            frozen = ~tunable
            model._input_vectors[:old_size][frozen] = snapshot_in[frozen]
            model._output_vectors[:old_size][frozen] = snapshot_out[frozen]
