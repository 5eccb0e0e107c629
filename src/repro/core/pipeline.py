"""The TDmatch pipeline (Figure 3 of the paper).

``TDMatch`` wires the whole unsupervised solution together:

1. build the joint graph over the two corpora (Algorithm 1);
2. optionally merge nodes (numeric bucketing, pre-trained-embedding merge);
3. optionally expand the graph with an external knowledge base (Algorithm 2);
4. optionally compress it (Algorithm 3 / baselines);
5. generate random walks and train Word2Vec on them (Algorithm 4);
6. rank, for every document of the query corpus, the documents of the other
   corpus by cosine similarity of their metadata-node vectors — delegated
   to a pluggable retrieval backend (:mod:`repro.retrieval`): exact chunked
   dense top-k by default, or blocked scoring that skips non-blocked pairs.

Typical use::

    pipeline = TDMatch(TDMatchConfig.for_text_to_data(), seed=7)
    pipeline.fit(reviews_corpus, movies_table)
    rankings = pipeline.match(k=20)
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.blocking import GraphQueryBlocker, MetadataNeighborhoodBlocking
from repro.core.config import TDMatchConfig
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.matcher import MetadataMatcher
from repro.corpus.documents import TextCorpus
from repro.corpus.table import Table
from repro.corpus.taxonomy import Taxonomy
from repro.embeddings.word2vec import Word2Vec
from repro.eval.ranking import RankingSet
from repro.graph.builder import BuiltGraph, GraphBuilder
from repro.graph.compression import (
    CompressionResult,
    msp_compress,
    random_edge_compress,
    random_node_compress,
    ssp_compress,
    ssum_compress,
)
from repro.graph.expansion import ExpansionResult, expand_graph
from repro.graph.merging import EmbeddingMerger, NumericBucketer
from repro.graph.walk_engine import make_walk_engine
from repro.parallel.reliability import ReliabilityEvent, recording
from repro.retrieval import BlockedTopK, DenseTopK, RetrievalStats
from repro.retrieval.base import QueryBlocker, RetrievalBackend
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng
from repro.utils.timing import TimingRegistry

logger = get_logger(__name__)


@dataclass
class MatchResult:
    """A ranking set together with provenance information."""

    rankings: RankingSet
    query_side: str
    k: int
    retrieval: Optional[RetrievalStats] = None

    def to_dict(self) -> Dict[str, object]:
        """The result as a plain JSON-able dict (for ``--json`` / reports)."""
        return {
            "query_side": self.query_side,
            "k": self.k,
            "rankings": {
                ranking.query_id: [
                    [candidate_id, float(score)]
                    for candidate_id, score in ranking.candidates
                ]
                for ranking in self.rankings
            },
            "retrieval": (
                {
                    "backend": self.retrieval.backend,
                    "n_queries": self.retrieval.n_queries,
                    "n_candidates": self.retrieval.n_candidates,
                    "scored_pairs": self.retrieval.scored_pairs,
                    "all_pairs": self.retrieval.all_pairs,
                    "reduction_ratio": self.retrieval.reduction_ratio,
                }
                if self.retrieval is not None
                else None
            ),
        }


@dataclass
class PipelineState:
    """Everything the pipeline learned during :meth:`TDMatch.fit`."""

    built: BuiltGraph
    model: Word2Vec
    merge_reports: list = field(default_factory=list)
    expansion: Optional[ExpansionResult] = None
    compression: Optional[CompressionResult] = None


class TDMatch:
    """End-to-end unsupervised matcher for heterogeneous corpora."""

    def __init__(self, config: Optional[TDMatchConfig] = None, seed=None):
        self.config = config or TDMatchConfig()
        self.seed = seed
        self.timings = TimingRegistry()
        self._state: Optional[PipelineState] = None
        self._builder: Optional[GraphBuilder] = None
        self._builder_config = None  # snapshot the builder was created from
        self._corpus_kinds: Optional[tuple] = None
        self._delta_count = 0  # incremental batches applied since fit/load
        # Supervision incidents of the last fit and the deltas after it.
        self._incidents: List[ReliabilityEvent] = []

    # ------------------------------------------------------------------
    # Fitting
    def fit(self, first, second) -> "TDMatch":
        """Build the graph over ``first`` and ``second`` and learn embeddings."""
        self._validate_corpus(first, "first")
        self._validate_corpus(second, "second")
        self._corpus_kinds = (self._corpus_kind(first), self._corpus_kind(second))
        self._delta_count = 0
        self._incidents = []
        with recording(self._incidents):
            self._state = self._fit_state(first, second)
        return self

    def _fit_state(self, first, second) -> PipelineState:
        """Run the fit stages over the two corpora and return what they learned."""
        with self.timings.measure("graph_build"):
            built = self._graph_builder().build(first, second)
        logger.info(
            "graph built: %d nodes, %d edges", built.graph.num_nodes(), built.graph.num_edges()
        )

        merge_reports = self._apply_merging(built)
        expansion = self._apply_expansion(built)
        compression = self._apply_compression(built)

        parallel = self.config.parallel
        engine = make_walk_engine(built.graph, self.config.walks, parallel=parallel)
        with self.timings.measure("walks"):
            walks = list(engine.iter_walks(seed=derive_rng(self.seed, "walks")))
        with self.timings.measure("word2vec"):
            model = Word2Vec(
                self.config.word2vec, seed=derive_rng(self.seed, "word2vec"), parallel=parallel
            )
            model.train(walks, labels=engine.csr.labels)
        return PipelineState(
            built=built,
            model=model,
            merge_reports=merge_reports,
            expansion=expansion,
            compression=compression,
        )

    def _graph_builder(self) -> GraphBuilder:
        """The pipeline's graph builder, reused across :meth:`fit` calls.

        Reuse keeps the builder's value-level interner warm, so
        re-fitting over the same or overlapping corpora (parameter sweeps,
        growing datasets) skips preprocessing for every value seen before.
        The builder is rebuilt when ``config.builder`` changes (compared
        against a deep-copied snapshot, since configs are mutable).
        """
        if self._builder is None or self._builder_config != self.config.builder:
            self._builder = GraphBuilder(self.config.builder)
            self._builder_config = copy.deepcopy(self.config.builder)
        return self._builder

    @staticmethod
    def _corpus_kind(corpus) -> str:
        if isinstance(corpus, Table):
            return "table"
        if isinstance(corpus, Taxonomy):
            return "taxonomy"
        return "text"

    def _validate_corpus(self, corpus, position: str) -> None:
        if not isinstance(corpus, (Table, TextCorpus, Taxonomy)):
            raise PipelineError(
                f"{position} corpus must be a Table, TextCorpus, or Taxonomy, got {type(corpus)!r}"
            )
        if len(corpus) == 0:
            raise PipelineError(f"{position} corpus is empty")

    # -- optional graph refinement stages --------------------------------
    def _apply_merging(self, built: BuiltGraph) -> list:
        reports: list = []
        merge_cfg = self.config.merge
        if merge_cfg.bucket_numeric:
            with self.timings.measure("merge_bucketing"):
                bucketer = NumericBucketer(width=merge_cfg.bucket_width)
                reports.append(bucketer.apply(built.graph))
        if merge_cfg.merge_embeddings:
            with self.timings.measure("merge_embeddings"):
                merger = EmbeddingMerger(merge_cfg.pretrained, threshold=merge_cfg.gamma)
                if merger.threshold is None:
                    if not merge_cfg.synonym_pairs:
                        raise PipelineError(
                            "embedding merging needs either gamma or synonym_pairs for calibration"
                        )
                    merger.calibrate_threshold(merge_cfg.synonym_pairs)
                reports.append(merger.apply(built.graph))
        return reports

    def _apply_expansion(self, built: BuiltGraph) -> Optional[ExpansionResult]:
        expansion_cfg = self.config.expansion
        if not expansion_cfg.enabled:
            return None
        with self.timings.measure("expansion"):
            return expand_graph(
                built.graph,
                expansion_cfg.resource,
                max_relations_per_node=expansion_cfg.max_relations_per_node,
                remove_sinks=expansion_cfg.remove_sinks,
            )

    def _apply_compression(self, built: BuiltGraph) -> Optional[CompressionResult]:
        compression_cfg = self.config.compression
        if not compression_cfg.enabled:
            return None
        with self.timings.measure("compression"):
            seed = derive_rng(self.seed, "compression")
            if compression_cfg.method == "msp":
                result = msp_compress(
                    built.graph,
                    built.first_labels(),
                    built.second_labels(),
                    beta=compression_cfg.ratio,
                    seed=seed,
                    parallel=self.config.parallel,
                )
            elif compression_cfg.method == "ssp":
                result = ssp_compress(
                    built.graph,
                    beta=compression_cfg.ratio,
                    seed=seed,
                    parallel=self.config.parallel,
                )
            elif compression_cfg.method == "ssum":
                result = ssum_compress(built.graph, target_ratio=compression_cfg.ratio, seed=seed)
            elif compression_cfg.method == "random-node":
                result = random_node_compress(built.graph, keep_ratio=compression_cfg.ratio, seed=seed)
            else:
                result = random_edge_compress(built.graph, keep_ratio=compression_cfg.ratio, seed=seed)
        # The compressed graph replaces the original for walks and matching.
        built.graph = result.graph
        return result

    # ------------------------------------------------------------------
    # Introspection
    @property
    def state(self) -> PipelineState:
        if self._state is None:
            raise NotFittedError("call fit() before accessing the pipeline state")
        return self._state

    @property
    def graph(self):
        return self.state.built.graph

    @property
    def model(self) -> Word2Vec:
        return self.state.model

    def metadata_vectors(self, side: str = "first") -> Dict[str, np.ndarray]:
        """Learned vectors of the metadata nodes of one corpus.

        Metadata nodes that fell out of the walk vocabulary (isolated nodes)
        get a zero vector so every document still receives a ranking.
        """
        state = self.state
        if side == "first":
            mapping = state.built.first_metadata
        elif side == "second":
            mapping = state.built.second_metadata
        else:
            raise ValueError("side must be 'first' or 'second'")
        dim = self.config.word2vec.vector_size
        vectors: Dict[str, np.ndarray] = {}
        for object_id, label in mapping.items():
            vec = state.model.vector(label)
            vectors[object_id] = vec if vec is not None else np.zeros(dim)
        return vectors

    # ------------------------------------------------------------------
    # Matching
    def matcher(self, query_side: str = "first") -> MetadataMatcher:
        """A :class:`MetadataMatcher` for the chosen query side."""
        if query_side not in ("first", "second"):
            raise ValueError("query_side must be 'first' or 'second'")
        candidate_side = "second" if query_side == "first" else "first"
        return MetadataMatcher(
            query_vectors=self.metadata_vectors(query_side),
            candidate_vectors=self.metadata_vectors(candidate_side),
        )

    def _retrieval_dtype(self):
        return np.float32 if self.config.retrieval.dtype == "float32" else None

    def _graph_query_blocker(self, query_side: str) -> QueryBlocker:
        """Graph-native blocker over the fitted match graph."""
        cfg = self.config.retrieval
        built = self.state.built
        query_labels = built.first_metadata if query_side == "first" else built.second_metadata
        candidate_labels = built.second_metadata if query_side == "first" else built.first_metadata
        blocking = MetadataNeighborhoodBlocking(
            self.graph, max_hops=cfg.max_hops, max_block_size=cfg.max_block_size
        )
        return GraphQueryBlocker(blocking, query_labels, candidate_labels)

    def retrieval_backend(
        self, query_side: str = "first", blocker: Optional[QueryBlocker] = None
    ) -> RetrievalBackend:
        """The retrieval backend selected by ``config.retrieval``.

        An explicit ``blocker`` forces the blocked backend; otherwise the
        "blocked" backend with "neighborhood" blocking builds the
        graph-native blocker from the fitted match graph, and "token"
        blocking must be supplied as a ready-made blocker (it needs the
        corpus texts, which the fitted pipeline does not retain).
        """
        cfg = self.config.retrieval
        dtype = self._retrieval_dtype()
        if blocker is not None:
            return BlockedTopK(
                blocker,
                fallback_to_full=cfg.fallback_to_full,
                dtype=dtype,
                chunk_size=cfg.chunk_size,
            )
        if cfg.backend == "blocked":
            if cfg.blocking == "token":
                raise PipelineError(
                    "token blocking needs the corpus texts; build a TokenBlocking + "
                    "TextQueryBlocker and pass it via match(blocker=...)"
                )
            return BlockedTopK(
                self._graph_query_blocker(query_side),
                fallback_to_full=cfg.fallback_to_full,
                dtype=dtype,
                chunk_size=cfg.chunk_size,
            )
        return DenseTopK(chunk_size=cfg.chunk_size, dtype=dtype)

    def match(
        self,
        k: int = 20,
        query_side: str = "first",
        blocker: Optional[QueryBlocker] = None,
    ) -> RankingSet:
        """Rank the top-k candidates of the other corpus for every query."""
        return self.match_result(k=k, query_side=query_side, blocker=blocker).rankings

    def match_result(
        self,
        k: int = 20,
        query_side: str = "first",
        blocker: Optional[QueryBlocker] = None,
    ) -> MatchResult:
        backend = self.retrieval_backend(query_side, blocker=blocker)
        with self.timings.measure("match"):
            rankings, stats = self.matcher(query_side).match_with_stats(k=k, backend=backend)
        return MatchResult(rankings=rankings, query_side=query_side, k=k, retrieval=stats)

    # ------------------------------------------------------------------
    # Persistence (single-file, memory-mappable serving index)
    def save(self, path: str) -> str:
        """Serialise the fitted pipeline into a single index file.

        The file contains everything :meth:`match` needs — CSR graph
        snapshot, embedding matrices, vocabulary, metadata maps, and a
        config snapshot — and is memory-mappable: ``load(path, mmap=True)``
        opens the embeddings as shared read-only pages.
        """
        from repro.serving.index import save_pipeline

        return save_pipeline(self, path)

    @classmethod
    def load(cls, path: str, mmap: Optional[bool] = None, verify: str = "header") -> "TDMatch":
        """Restore a ready-to-serve pipeline from :meth:`save` output.

        ``mmap=None`` honours the ``serving.mmap`` flag stored in the
        index; ``True`` memory-maps the arrays (N processes share pages),
        ``False`` loads private writable copies.  ``verify`` controls
        corruption detection before serving: ``"header"`` (default) checks
        the container structure and header checksum, ``"full"`` also CRCs
        every array blob (raising
        :class:`~repro.serving.index.IndexCorruptionError` naming the
        first bad one), ``"none"`` keeps only the structural checks.
        """
        from repro.serving.index import load_pipeline

        return load_pipeline(path, mmap=mmap, verify=verify)

    # ------------------------------------------------------------------
    # Incremental fit
    def add_documents(self, documents, side: str = "second") -> List[str]:
        """Add text documents to a fitted pipeline without a full refit.

        The delta is spliced into the graph, walks are regenerated only in
        the touched neighbourhood, and the model is warm-start fine-tuned
        on them.  Returns the new metadata labels.
        """
        from repro.serving.incremental import add_documents

        with recording(self._incidents):
            return add_documents(self, documents, side=side)

    def add_records(self, records, side: str = "second") -> List[str]:
        """Add table rows to a fitted pipeline without a full refit."""
        from repro.serving.incremental import add_records

        with recording(self._incidents):
            return add_records(self, records, side=side)

    def remove(self, object_ids, side: str = "second") -> List[str]:
        """Remove objects and their metadata nodes from a fitted pipeline."""
        from repro.serving.incremental import remove

        return remove(self, object_ids, side=side)

    # ------------------------------------------------------------------
    # Structured reporting
    def report(self) -> Dict[str, object]:
        """A JSON-able report of stage seconds, reliability incidents, and fitted-state shape.

        ``model.mmap`` is the state of the embedding arrays, not of a load
        option: it turns false once ``add_*`` copies them into private memory.
        """
        report: Dict[str, object] = {
            "timings": self.timings.as_dict(),
            "reliability": [event.to_dict() for event in self._incidents],
        }
        if self._state is not None:
            built = self._state.built
            model = self._state.model
            filter_stats = built.filter_stats
            report["graph"] = {
                "nodes": built.graph.num_nodes(),
                "edges": built.graph.num_edges(),
                "intersect_anchor": built.intersect_anchor,
                "filter_kept_fraction": (
                    filter_stats.kept_fraction if filter_stats is not None else None
                ),
            }
            model_info: Dict[str, object] = {
                "vocab_size": len(model.vocab) if model.vocab is not None else 0,
                "vector_size": model.config.vector_size,
                "mmap": isinstance(model._input_vectors, np.memmap),
            }
            if model.stats is not None:
                model_info["pairs"] = model.stats.pairs
                model_info["pairs_per_sec"] = model.stats.pairs_per_sec
            report["model"] = model_info
            report["incremental_deltas"] = self._delta_count
        return report
