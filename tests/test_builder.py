"""Tests for Algorithm 1 — graph construction over two corpora."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.documents import TextCorpus
from repro.corpus.table import Column, Table
from repro.corpus.taxonomy import Taxonomy
from repro.graph.builder import (
    COLUMN_PREFIX,
    GraphBuilder,
    GraphBuilderConfig,
    metadata_label,
    strip_metadata_label,
)
from repro.text.preprocess import PreprocessConfig
from tests.oracles.graph import ReferenceGraph


@pytest.fixture()
def movies_table():
    table = Table(
        "movies",
        [Column("title"), Column("director"), Column("genre"), Column("certificate")],
    )
    table.add_record("t1", title="The Sixth Sense", director="Shyamalan", genre="Thriller", certificate="PG")
    table.add_record("t2", title="Pulp Fiction", director="Tarantino", genre="Drama", certificate="R")
    return table


@pytest.fixture()
def reviews():
    corpus = TextCorpus(name="reviews")
    corpus.add_text("p1", "Willis stars in a comedy directed by Tarantino")
    corpus.add_text("p2", "Shyamalan made a thriller with Willis")
    return corpus


@pytest.fixture()
def taxonomy():
    tax = Taxonomy()
    tax.add_concept("root", "internal audit")
    tax.add_concept("plan", "audit programme", parent_id="root")
    tax.add_concept("iso", "iso 19001 standard", parent_id="plan")
    return tax


class TestTableTextGraph:
    def test_metadata_nodes_for_rows_and_documents(self, movies_table, reviews):
        built = GraphBuilder().build(reviews, movies_table)
        graph = ReferenceGraph.thaw(built.graph)
        assert set(built.first_metadata) == {"p1", "p2"}
        assert set(built.second_metadata) == {"t1", "t2"}
        for label in built.first_metadata.values():
            assert graph.is_metadata(label)

    def test_column_metadata_nodes_created(self, movies_table, reviews):
        built = GraphBuilder().build(movies_table, reviews)
        columns = built.graph.metadata_nodes(role="column")
        assert len(columns) == 4
        assert all(c.startswith(COLUMN_PREFIX) for c in columns)

    def test_column_nodes_connect_to_cell_terms(self, movies_table, reviews):
        built = GraphBuilder().build(movies_table, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        director_col = f"{COLUMN_PREFIX}movies::director"
        assert graph.has_node(director_col)
        assert any(graph.has_edge(director_col, n) for n in ("shyamalan", "tarantino"))

    def test_shared_terms_bridge_corpora(self, movies_table, reviews):
        built = GraphBuilder().build(movies_table, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        t1 = built.first_metadata["t1"]
        p2 = built.second_metadata["p2"]
        # p2 mentions Shyamalan and Willis; t1 contains Shyamalan.
        path = graph.shortest_path(p2, t1)
        assert path is not None and len(path) == 3

    def test_rows_connect_to_their_terms(self, movies_table, reviews):
        built = GraphBuilder().build(movies_table, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        t2 = built.first_metadata["t2"]
        assert graph.has_edge(t2, "tarantino")

    def test_second_corpus_terms_filtered_by_intersection(self, movies_table, reviews):
        # The table has far fewer distinct terms, so it anchors the vocabulary;
        # review-only words like "stars" must not become nodes.
        built = GraphBuilder().build(movies_table, reviews)
        assert not built.graph.has_node("star")
        assert not built.graph.has_node("stars")

    def test_metadata_nodes_never_connect_across_corpora(self, movies_table, reviews):
        built = GraphBuilder().build(movies_table, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        for first_label in built.first_metadata.values():
            for second_label in built.second_metadata.values():
                assert not graph.has_edge(first_label, second_label)


class TestTaxonomyGraph:
    def test_taxonomy_parent_edges(self, taxonomy, reviews):
        built = GraphBuilder().build(taxonomy, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        plan = built.first_metadata["plan"]
        iso = built.first_metadata["iso"]
        root = built.first_metadata["root"]
        assert graph.has_edge(plan, iso)
        assert graph.has_edge(root, plan)

    def test_taxonomy_edges_can_be_disabled(self, taxonomy, reviews):
        config = GraphBuilderConfig(connect_structured_metadata=False)
        built = GraphBuilder(config).build(taxonomy, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        plan = built.first_metadata["plan"]
        iso = built.first_metadata["iso"]
        assert not graph.has_edge(plan, iso)

    def test_concept_role_assigned(self, taxonomy, reviews):
        built = GraphBuilder().build(taxonomy, reviews)
        assert len(built.graph.metadata_nodes(role="concept")) == 3


class TestTextToText:
    def test_text_to_text_graph(self, reviews):
        other = TextCorpus(name="claims")
        other.add_text("c1", "a thriller by Shyamalan")
        built = GraphBuilder().build(other, reviews)
        graph = ReferenceGraph.thaw(built.graph)
        assert graph.has_node("shyamalan")
        c1 = built.first_metadata["c1"]
        p2 = built.second_metadata["p2"]
        assert graph.shortest_path(c1, p2) is not None

    def test_filter_strategy_normal_keeps_everything(self, movies_table, reviews):
        config = GraphBuilderConfig(filter_strategy_name="normal")
        built = GraphBuilder(config).build(movies_table, reviews)
        # "stars" only appears in the reviews but is kept under NoFilter.
        assert built.graph.has_node("star") or built.graph.has_node("stars")

    def test_filter_strategy_tfidf(self, movies_table, reviews):
        config = GraphBuilderConfig(filter_strategy_name="tfidf")
        built = GraphBuilder(config).build(movies_table, reviews)
        assert built.graph.num_nodes() > 0

    def test_unknown_filter_strategy_raises(self):
        with pytest.raises(ValueError):
            GraphBuilderConfig(filter_strategy_name="bogus").make_filter([], [], [])


class TestLabels:
    def test_metadata_label_prefixes(self, movies_table, reviews, taxonomy):
        assert metadata_label(movies_table, "t1").startswith("row::")
        assert metadata_label(reviews, "p1").startswith("doc::")
        assert metadata_label(taxonomy, "plan").startswith("concept::")

    def test_strip_metadata_label_roundtrip(self, movies_table):
        label = metadata_label(movies_table, "t1")
        assert strip_metadata_label(label) == "t1"

    def test_strip_plain_label_passthrough(self):
        assert strip_metadata_label("just-a-term") == "just-a-term"

    def test_strip_preserves_separator_in_object_id(self, reviews):
        """Regression: an unqualified id containing ``::`` must survive."""
        label = metadata_label(reviews, "a::b")
        assert label == "doc::a::b"
        assert strip_metadata_label(label) == "a::b"

    def test_strip_with_corpus_qualifier(self, reviews):
        label = metadata_label(reviews, "p1", corpus_name="reviews")
        assert label == "doc::reviews::p1"
        assert strip_metadata_label(label, corpus_name="reviews") == "p1"

    def test_strip_qualifier_removed_once(self, reviews):
        """An object id starting with the qualifier itself is kept intact."""
        label = metadata_label(reviews, "reviews::x", corpus_name="reviews")
        assert strip_metadata_label(label, corpus_name="reviews") == "reviews::x"

    @given(
        object_id=st.text(
            alphabet=string.ascii_lowercase + ":", min_size=1, max_size=20
        ),
        corpus_name=st.text(alphabet=string.ascii_lowercase, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_strip_roundtrip_property(self, object_id, corpus_name):
        """strip(metadata_label(c, oid, name), name) == oid for any oid."""
        corpus = TextCorpus(name="c")
        corpus.add_text("d", "text")
        label = metadata_label(corpus, object_id, corpus_name=corpus_name)
        assert strip_metadata_label(label, corpus_name=corpus_name) == object_id

    def test_ngram_config_respected(self, movies_table, reviews):
        config = GraphBuilderConfig(preprocess=PreprocessConfig(max_ngram=1))
        built = GraphBuilder(config).build(movies_table, reviews)
        assert all(" " not in n for n in built.graph.data_nodes())

    def test_unsupported_corpus_type_raises(self, reviews):
        with pytest.raises(TypeError):
            GraphBuilder().build(reviews, {"not": "a corpus"})
