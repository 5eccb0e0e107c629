"""Tests for graph construction (Algorithm 1) and its substrate.

Covers the :class:`~repro.text.preprocess.TermInterner`, the interned
filters, parity with the per-term oracle of ``tests/oracles/graph.py``
(hypothesis property: identical node list, node metadata — including the
``"both"`` promotion — undirected edge set and CSR arrays for random
corpus pairs under every filter strategy), and the seeded end-to-end
identity of ``TDMatch.match`` with the oracle swapped in.
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
from repro.graph.filtering import (
    BulkIntersectFilter,
    BulkNoFilter,
    BulkTfIdfFilter,
    FilterStatistics,
)
from repro.text.preprocess import PreprocessConfig, Preprocessor, TermInterner
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
        assert interner.decode([first]) == ["drama"]

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


# ----------------------------------------------------------------------
# Config validation
class TestConfigValidation:
    def test_preprocess_config_validates(self):
        with pytest.raises(ValueError):
            PreprocessConfig(max_ngram=0)
        PreprocessConfig(max_ngram=1)  # valid


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
        # Six words make 15 terms, so the top 10 drops some.
        texts = [
            "drama film noir classic thriller story",
            "drama thriller night",
            "noir classic film drama mystery crime",
        ]
        docs = [interner.term_ids(t) for t in texts]
        reference = make_string_filter(GraphBuilderConfig(filter_strategy_name="tfidf"))
        reference.prepare([preprocessor.terms(t) for t in texts], [])
        bulk = BulkTfIdfFilter(docs, [], interner.terms)
        for ids, text in zip(docs, texts):
            expected = reference.keep_first(preprocessor.terms(text))
            assert interner.decode(bulk.keep_first(ids)) == expected
        assert [len(bulk.keep_first(ids)) for ids in docs] == [10, 6, 10]


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
    assert np.array_equal(ref_graph.indptr, bulk_graph.indptr)
    assert np.array_equal(ref_graph.indices, bulk_graph.indices)
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
        pipeline.config.builder.connect_structured_metadata = False  # no taxonomy here
        pipeline.fit(scenario.first, scenario.second)
        assert pipeline._builder is not builder  # config change rebuilds
        assert pipeline.graph.nodes() == nodes
