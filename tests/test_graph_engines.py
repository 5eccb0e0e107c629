"""Tests for graph construction (Algorithm 1) and its substrate.

Covers the :class:`~repro.text.preprocess.TermInterner`, the bulk
node/edge APIs of :class:`~repro.graph.graph.MatchGraph`, the interned
filters, parity with the per-term oracle of ``tests/oracles/graph.py``
(hypothesis property: identical node list, node metadata — including the
``"both"`` promotion — and undirected edge set for random corpus pairs
under every filter strategy), the primed CSR fast path, and the seeded
end-to-end identity of ``TDMatch.match`` with the oracle swapped in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.corpus.documents import TextCorpus
from repro.corpus.table import Column, Table
from repro.corpus.taxonomy import Taxonomy
from repro.datasets import ScenarioSize, generate_scenario
from repro.graph.builder import GraphBuilder, GraphBuilderConfig
from repro.graph.csr import build_csr, csr_adjacency
from repro.graph.filtering import (
    BulkIntersectFilter,
    BulkNoFilter,
    BulkTfIdfFilter,
    FilterStatistics,
)
from repro.graph.graph import MatchGraph, NodeKind, dedup_edge_ids
from repro.text.preprocess import (
    PreprocessConfig,
    Preprocessor,
    TermInterner,
    unique_in_order,
)
from tests.oracles.graph import build_reference, make_string_filter


# ----------------------------------------------------------------------
# TermInterner
class TestTermInterner:
    def make(self):
        return TermInterner(Preprocessor(PreprocessConfig()))

    def test_ids_are_dense_and_decode_roundtrips(self):
        interner = self.make()
        ids = interner.term_ids("the sixth sense")
        assert ids.dtype == np.int32
        assert sorted(set(ids.tolist())) == list(range(len(interner)))
        assert interner.decode(ids) == Preprocessor(PreprocessConfig()).terms(
            "the sixth sense"
        )

    def test_value_memo_preprocesses_each_distinct_value_once(self):
        interner = self.make()
        calls = []
        original = interner.preprocessor.terms

        def counting_terms(text, max_ngram=None):
            calls.append(text)
            return original(text, max_ngram)

        interner.preprocessor.terms = counting_terms
        for _ in range(5):
            interner.term_ids("pulp fiction")
            interner.term_ids("the sixth sense")
        assert calls == ["pulp fiction", "the sixth sense"]

    def test_term_ids_returns_cached_array(self):
        interner = self.make()
        assert interner.term_ids("drama film") is interner.term_ids("drama film")

    def test_id_of_interns_and_is_stable(self):
        interner = self.make()
        first = interner.id_of("drama")
        assert interner.id_of("drama") == first
        assert interner.term_of(first) == "drama"

    def test_reset_drops_everything(self):
        interner = self.make()
        interner.term_ids("pulp fiction")
        assert len(interner) > 0
        interner.reset()
        assert len(interner) == 0
        assert interner.term_ids("pulp fiction").size > 0  # usable again

    def test_reset_if_larger_than_bounds_the_memo(self):
        interner = self.make()
        for index in range(4):
            interner.term_ids(f"value number {index}")
        assert not interner.reset_if_larger_than(10)
        assert interner.reset_if_larger_than(3)
        assert len(interner) == 0

    def test_reset_if_larger_than_bounds_accumulated_key_bytes(self):
        interner = self.make()
        interner.term_ids("a rather long review text that never repeats")
        assert not interner.reset_if_larger_than(max_cached_chars=1000)
        assert interner.reset_if_larger_than(max_cached_chars=10)
        assert len(interner) == 0

    def test_term_ids_of_values_matches_reference_terms_of_values(self):
        preprocessor = Preprocessor(PreprocessConfig())
        interner = TermInterner(preprocessor)
        values = ["The Sixth Sense", "Shyamalan", "Thriller", "The Sixth Sense"]
        expected = preprocessor.terms_of_values(values)
        assert interner.decode(interner.term_ids_of_values(values)) == expected


class TestUniqueInOrder:
    def test_keeps_first_occurrence_order(self):
        parts = [np.array([3, 1, 3], dtype=np.int32), np.array([2, 1], dtype=np.int32)]
        assert unique_in_order(parts).tolist() == [3, 1, 2]

    def test_empty(self):
        assert unique_in_order([]).size == 0
        assert unique_in_order([np.empty(0, dtype=np.int32)]).size == 0

    def test_single_array_with_duplicates_is_deduped(self):
        part = np.array([3, 1, 3, 1, 2], dtype=np.int32)
        result = unique_in_order([part])
        assert result.tolist() == [3, 1, 2]
        assert result is not part  # always a fresh array


# ----------------------------------------------------------------------
# MatchGraph bulk APIs
class TestAddNodesBulk:
    def test_adds_new_nodes_with_single_version_bump(self):
        graph = MatchGraph()
        before = graph.version
        added = graph.add_nodes_bulk(["a", "b", "c"])
        assert added == 3
        assert graph.version == before + 1
        assert graph.nodes() == ["a", "b", "c"]

    def test_per_node_field_sequences(self):
        graph = MatchGraph()
        graph.add_nodes_bulk(
            ["m", "t"],
            kind=[NodeKind.METADATA, NodeKind.DATA],
            corpus=["first", "second"],
            role=["document", "term"],
        )
        assert graph.node_info("m").kind == NodeKind.METADATA
        assert graph.node_info("t").corpus == "second"

    def test_existing_nodes_promoted_to_both(self):
        graph = MatchGraph()
        graph.add_node("x", kind=NodeKind.METADATA, corpus="first", role="document")
        added = graph.add_nodes_bulk(["x"], kind=NodeKind.METADATA, corpus="second")
        assert added == 0
        assert graph.node_info("x").corpus == "both"
        assert graph.node_info("x").role == "document"  # role is preserved

    def test_default_role_follows_kind(self):
        graph = MatchGraph()
        graph.add_nodes_bulk(["d"], kind=NodeKind.DATA)
        graph.add_nodes_bulk(["m"], kind=NodeKind.METADATA)
        assert graph.node_info("d").role == "term"
        assert graph.node_info("m").role == "document"

    def test_empty_label_raises(self):
        with pytest.raises(ValueError):
            MatchGraph().add_nodes_bulk([""])

    def test_field_sequence_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            MatchGraph().add_nodes_bulk(
                ["a", "b", "c"], kind=[NodeKind.DATA, NodeKind.DATA]
            )

    def test_no_bump_when_nothing_new(self):
        graph = MatchGraph()
        graph.add_node("a")
        before = graph.version
        assert graph.add_nodes_bulk(["a"]) == 0
        assert graph.version == before


class TestAddEdgesBulk:
    def _nodes(self, graph, labels):
        graph.add_nodes_bulk(labels)

    def test_matches_per_edge_loop(self):
        pairs = [("a", "b"), ("b", "a"), ("a", "c"), ("a", "b"), ("c", "c")]
        bulk = MatchGraph()
        loop = MatchGraph()
        for graph in (bulk, loop):
            self._nodes(graph, ["a", "b", "c"])
        added = bulk.add_edges_bulk([u for u, _ in pairs], [v for _, v in pairs])
        for u, v in pairs:
            loop.add_edge(u, v)
        assert added == 2
        assert set(bulk.edges()) == set(loop.edges())
        assert bulk.num_edges() == loop.num_edges() == 2

    def test_single_version_bump(self):
        graph = MatchGraph()
        self._nodes(graph, ["a", "b", "c"])
        before = graph.version
        graph.add_edges_bulk(["a", "a"], ["b", "c"])
        assert graph.version == before + 1

    def test_skips_existing_edges(self):
        graph = MatchGraph()
        self._nodes(graph, ["a", "b", "c"])
        graph.add_edge("a", "b")
        assert graph.add_edges_bulk(["a", "b"], ["b", "c"]) == 1
        assert graph.num_edges() == 2

    def test_missing_node_raises(self):
        graph = MatchGraph()
        self._nodes(graph, ["a"])
        with pytest.raises(KeyError):
            graph.add_edges_bulk(["a"], ["ghost"])
        with pytest.raises(KeyError):
            graph.add_edges_bulk(["a"], ["ghost"], assume_unique=True)
        # A batch that fails part-way keeps the edges inserted before the bad
        # pair, so it must still invalidate the cached CSR snapshot.
        self._nodes(graph, ["b"])
        before = graph.version
        with pytest.raises(KeyError):
            graph.add_edges_bulk(["a", "a"], ["b", "ghost"], assume_unique=True)
        assert graph.has_edge("a", "b")
        assert graph.num_edges() == 1
        assert graph.version == before + 1

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            MatchGraph().add_edges_bulk(["a"], [])

    def test_assume_unique_fast_path(self):
        graph = MatchGraph()
        self._nodes(graph, ["a", "b", "c"])
        assert graph.add_edges_bulk(["a", "b"], ["b", "c"], assume_unique=True) == 2
        assert graph.has_edge("a", "b") and graph.has_edge("b", "c")

    def test_numpy_object_arrays_accepted(self):
        graph = MatchGraph()
        self._nodes(graph, ["a", "b"])
        u = np.array(["a"], dtype=object)
        v = np.array(["b"], dtype=object)
        assert graph.add_edges_bulk(u, v) == 1


class TestDedupEdgeIds:
    def test_normalises_and_dedups(self):
        u = np.array([1, 2, 0, 2, 3])
        v = np.array([2, 1, 0, 1, 1])
        lo, hi = dedup_edge_ids(u, v, 4)
        assert list(zip(lo.tolist(), hi.tolist())) == [(1, 2), (1, 3)]

    def test_empty(self):
        lo, hi = dedup_edge_ids(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
        assert lo.size == 0 and hi.size == 0


class TestCopyPreservesVersion:
    def test_copy_carries_version(self):
        graph = MatchGraph()
        graph.add_nodes_bulk(["a", "b"])
        graph.add_edge("a", "b")
        clone = graph.copy()
        assert clone.version == graph.version
        clone.remove_edge("a", "b")
        assert clone.version == graph.version + 1

    def test_copied_graph_rebuilds_its_own_csr(self):
        graph = MatchGraph()
        graph.add_nodes_bulk(["a", "b"])
        graph.add_edge("a", "b")
        csr_adjacency(graph)
        clone = graph.copy()
        clone.add_node("c")
        clone.add_edge("a", "c")
        snapshot = csr_adjacency(clone)
        assert snapshot.num_nodes == 3


# ----------------------------------------------------------------------
# Config validation
class TestConfigValidation:
    def test_preprocess_config_validates(self):
        with pytest.raises(ValueError):
            PreprocessConfig(max_ngram=0)
        with pytest.raises(ValueError):
            PreprocessConfig(min_token_length=0)
        PreprocessConfig(max_ngram=1, min_token_length=1)  # valid

    def test_builder_config_validates(self):
        with pytest.raises(ValueError):
            GraphBuilderConfig(tfidf_top_k=0)
        GraphBuilderConfig(tfidf_top_k=1)  # valid


# ----------------------------------------------------------------------
# Bulk filters
class TestBulkFilters:
    def test_factory_maps_strategies(self):
        docs = [np.array([0, 1], dtype=np.int32)]
        terms = ["alpha", "beta"]
        for name, expected in (
            ("intersect", BulkIntersectFilter),
            ("normal", BulkNoFilter),
            ("tfidf", BulkTfIdfFilter),
        ):
            config = GraphBuilderConfig(filter_strategy_name=name)
            assert isinstance(config.make_filter(docs, docs, terms), expected)

    def test_unknown_strategy_raises(self):
        config = GraphBuilderConfig(filter_strategy_name="custom")
        with pytest.raises(ValueError, match="custom"):
            config.make_filter([], [], [])

    def test_intersect_anchor_tie_breaks_to_first(self):
        first = [np.array([0, 1], dtype=np.int32)]
        second = [np.array([2, 3], dtype=np.int32)]
        bulk = BulkIntersectFilter(first, second, 4)
        assert bulk.anchor == "first"
        assert not bulk.second_may_create_nodes

    def test_tfidf_matches_reference_order(self):
        preprocessor = Preprocessor(PreprocessConfig())
        interner = TermInterner(preprocessor)
        texts = ["drama film noir", "drama thriller", "noir classic film"]
        docs = [interner.term_ids(t) for t in texts]
        reference = make_string_filter(GraphBuilderConfig(filter_strategy_name="tfidf", tfidf_top_k=2))
        reference.prepare([preprocessor.terms(t) for t in texts], [])
        bulk = BulkTfIdfFilter(docs, [], interner.terms, top_k=2)
        for index, (ids, text) in enumerate(zip(docs, texts)):
            expected = reference.keep_first(index, preprocessor.terms(text))
            assert interner.decode(bulk.keep_first(index, ids)) == expected


# ----------------------------------------------------------------------
# Parity with the per-term oracle (hypothesis property)
WORDS = [
    "alpha", "beta", "gamma", "delta", "iso", "audit", "sense", "willis",
    "drama", "thriller", "42", "2020",
]

texts = st.lists(st.sampled_from(WORDS), min_size=0, max_size=5).map(" ".join)
nonempty_texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)


@st.composite
def text_corpora(draw):
    corpus = TextCorpus(name="txt")
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        corpus.add_text(f"d{index}", draw(texts))
    return corpus


@st.composite
def tables(draw):
    n_cols = draw(st.integers(min_value=1, max_value=3))
    table = Table("tbl", [Column(f"c{i}") for i in range(n_cols)])
    for row in range(draw(st.integers(min_value=0, max_value=4))):
        values = {}
        for col in range(n_cols):
            if draw(st.booleans()):
                values[f"c{col}"] = draw(texts)
        table.add_record(f"t{row}", **values)
    return table


@st.composite
def taxonomies(draw):
    taxonomy = Taxonomy()
    count = draw(st.integers(min_value=0, max_value=4))
    for index in range(count):
        parent = None
        if index and draw(st.booleans()):
            parent = f"n{draw(st.integers(min_value=0, max_value=index - 1))}"
        taxonomy.add_concept(f"n{index}", draw(nonempty_texts), parent_id=parent)
    return taxonomy


corpora = st.one_of(text_corpora(), tables(), taxonomies())


def assert_engines_agree(first, second, **config_kwargs):
    config = GraphBuilderConfig(**config_kwargs)
    reference = build_reference(config, first, second)
    bulk = GraphBuilder(config).build(first, second)
    ref_graph, bulk_graph = reference.graph, bulk.graph
    # Node parity is asserted on the ordered list, not just the set: the
    # insertion order fixes CSR node ids and hence seeded walk corpora.
    assert ref_graph.nodes() == bulk_graph.nodes()
    for label in ref_graph.nodes():
        assert ref_graph.node_info(label) == bulk_graph.node_info(label)
    assert set(ref_graph.edges()) == set(bulk_graph.edges())
    assert ref_graph.num_edges() == bulk_graph.num_edges()
    assert reference.first_metadata == bulk.first_metadata
    assert reference.second_metadata == bulk.second_metadata
    assert reference.filter_stats == bulk.filter_stats
    assert isinstance(bulk.filter_stats, FilterStatistics)
    return bulk


class TestEngineParity:
    @pytest.mark.parametrize("strategy", ["intersect", "normal", "tfidf"])
    @given(first=corpora, second=corpora)
    @settings(max_examples=40, deadline=None)
    def test_bulk_matches_reference(self, strategy, first, second):
        assert_engines_agree(first, second, filter_strategy_name=strategy)

    @given(first=tables(), second=text_corpora())
    @settings(max_examples=20, deadline=None)
    def test_parity_without_column_nodes(self, first, second):
        assert_engines_agree(first, second, add_column_nodes=False)

    @given(first=taxonomies(), second=taxonomies())
    @settings(max_examples=20, deadline=None)
    def test_parity_without_structured_metadata(self, first, second):
        assert_engines_agree(first, second, connect_structured_metadata=False)

    def test_self_match_promotes_all_metadata_to_both(self):
        table = Table("tbl", [Column("c0")])
        table.add_record("t0", c0="alpha beta")
        table.add_record("t1", c0="beta gamma")
        bulk = assert_engines_agree(table, table)
        for label in bulk.first_metadata.values():
            assert bulk.graph.node_info(label).corpus == "both"

    def test_repeated_builds_on_one_builder_are_identical(self):
        table = Table("tbl", [Column("c0"), Column("c1")])
        table.add_record("t0", c0="alpha beta", c1="drama")
        table.add_record("t1", c0="beta gamma", c1="drama")
        corpus = TextCorpus(name="txt")
        corpus.add_text("d0", "alpha drama")
        builder = GraphBuilder(GraphBuilderConfig())
        first = builder.build(table, corpus)
        second = builder.build(table, corpus)  # warm interner
        assert first.graph.nodes() == second.graph.nodes()
        assert set(first.graph.edges()) == set(second.graph.edges())


# ----------------------------------------------------------------------
# CSR fast path
class TestCSRFastPath:
    def build(self):
        table = Table("tbl", [Column("c0"), Column("c1")])
        table.add_record("t0", c0="alpha beta", c1="drama sense")
        table.add_record("t1", c0="beta gamma", c1="drama")
        corpus = TextCorpus(name="txt")
        corpus.add_text("d0", "alpha drama willis")
        corpus.add_text("d1", "gamma sense")
        return GraphBuilder(GraphBuilderConfig()).build(table, corpus)

    def test_bulk_build_primes_csr_cache(self):
        built = self.build()
        primed = getattr(built.graph, "_csr_cache", None)
        assert primed is not None
        assert primed.graph_version == built.graph.version
        # csr_adjacency returns the primed snapshot without rebuilding.
        assert csr_adjacency(built.graph) is primed

    def test_primed_snapshot_equals_rebuilt(self):
        built = self.build()
        primed = csr_adjacency(built.graph)
        rebuilt = build_csr(built.graph)
        assert rebuilt.labels == primed.labels
        assert rebuilt.ids == primed.ids
        assert np.array_equal(rebuilt.indptr, primed.indptr)
        assert np.array_equal(rebuilt.indices, primed.indices)

    def test_mutation_invalidates_primed_snapshot(self):
        built = self.build()
        primed = csr_adjacency(built.graph)
        built.graph.add_node("late")
        refreshed = csr_adjacency(built.graph)
        assert refreshed is not primed
        assert "late" in refreshed.labels


# ----------------------------------------------------------------------
# End-to-end identity and pipeline report
class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_scenario(
            "imdb_wt",
            size=ScenarioSize(n_entities=12, n_queries=16, n_distractors=6),
            seed=5,
        )

    def run(self, scenario, oracle=False):
        config = TDMatchConfig.for_text_to_data()
        config.walks.num_walks = 4
        config.walks.walk_length = 8
        config.word2vec.vector_size = 24
        config.word2vec.epochs = 1
        pipeline = TDMatch(config, seed=13)
        with pytest.MonkeyPatch.context() as patch:
            if oracle:
                patch.setattr(
                    GraphBuilder,
                    "build",
                    lambda builder, first, second: build_reference(builder.config, first, second),
                )
            pipeline.fit(scenario.first, scenario.second)
        return pipeline

    def test_seeded_match_identity_across_engines(self, scenario):
        reference = self.run(scenario, oracle=True).match(k=8)
        bulk = self.run(scenario).match(k=8)
        assert reference.as_id_lists() == bulk.as_id_lists()

    def test_timing_notes_recorded(self, scenario):
        pipeline = self.run(scenario)
        fraction = pipeline.report()["graph"]["filter_kept_fraction"]
        assert fraction == pipeline.state.built.filter_stats.kept_fraction
        assert 0.0 <= fraction <= 1.0

    def test_refit_reuses_builder_until_config_changes(self, scenario):
        pipeline = self.run(scenario)
        builder = pipeline._builder
        assert builder is not None
        nodes = pipeline.graph.nodes()
        pipeline.fit(scenario.first, scenario.second)
        assert pipeline._builder is builder  # warm interner reused
        assert pipeline.graph.nodes() == nodes
        pipeline.config.builder.tfidf_top_k += 1  # unused by the intersect filter
        pipeline.fit(scenario.first, scenario.second)
        assert pipeline._builder is not builder  # config change rebuilds
        assert pipeline.graph.nodes() == nodes
