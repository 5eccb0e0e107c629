"""Tests for the corpus substrate: documents, tables, taxonomies, serialization."""

import pytest

from repro.corpus.documents import Document, TextCorpus
from repro.corpus.serialization import serialize_row
from repro.corpus.table import Column, Row, Table
from repro.corpus.taxonomy import ConceptNode, Taxonomy


class TestDocument:
    def test_requires_doc_id(self):
        with pytest.raises(ValueError):
            Document(doc_id="", text="hello")

    def test_len_is_text_length(self):
        assert len(Document(doc_id="d1", text="abcd")) == 4

    def test_metadata_defaults_to_empty(self):
        assert Document(doc_id="d1", text="x").metadata == {}


class TestTextCorpus:
    def test_add_and_get(self):
        corpus = TextCorpus()
        corpus.add_text("d1", "first")
        assert corpus["d1"].text == "first"

    def test_duplicate_ids_rejected(self):
        corpus = TextCorpus()
        corpus.add_text("d1", "x")
        with pytest.raises(ValueError):
            corpus.add_text("d1", "y")

    def test_len_and_iteration_order(self):
        corpus = TextCorpus()
        corpus.add_text("a", "1")
        corpus.add_text("b", "2")
        assert len(corpus) == 2
        assert [d.doc_id for d in corpus] == ["a", "b"]

    def test_contains(self):
        corpus = TextCorpus()
        corpus.add_text("a", "1")
        assert "a" in corpus and "z" not in corpus

    def test_get_with_default(self):
        corpus = TextCorpus()
        assert corpus.get("missing") is None

    def test_texts_and_ids(self):
        corpus = TextCorpus()
        corpus.add_text("a", "x")
        corpus.add_text("b", "y")
        assert corpus.texts() == ["x", "y"]
        assert corpus.document_ids == ["a", "b"]

    def test_metadata_kwargs(self):
        corpus = TextCorpus()
        doc = corpus.add_text("a", "x", source="imdb")
        assert doc.metadata["source"] == "imdb"


class TestTable:
    @pytest.fixture()
    def movies(self):
        table = Table("movies", [Column("title"), Column("director"), Column("year", dtype="numeric")])
        table.add_record("m1", title="The Sixth Sense", director="Shyamalan", year=1999)
        table.add_record("m2", title="Pulp Fiction", director="Tarantino", year=1994)
        return table

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Table("empty", [])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("dup", [Column("a"), Column("a")])

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            Column("x", dtype="blob")

    def test_row_ids_and_len(self, movies):
        assert len(movies) == 2
        assert movies.row_ids == ["m1", "m2"]

    def test_duplicate_row_id_rejected(self, movies):
        with pytest.raises(ValueError):
            movies.add_record("m1", title="Again")

    def test_unknown_column_rejected(self, movies):
        with pytest.raises(ValueError):
            movies.add_record("m3", composer="Zimmer")

    def test_column_lookup(self, movies):
        assert movies.column("year").dtype == "numeric"
        with pytest.raises(KeyError):
            movies.column("missing")

    def test_getitem_and_get(self, movies):
        assert movies["m1"].value("director") == "Shyamalan"
        assert movies.get("missing") is None

    def test_project(self, movies):
        projected = movies.project(["title"])
        assert projected.column_names == ["title"]
        assert projected["m1"].values == {"title": "The Sixth Sense"}

    def test_project_unknown_column_raises(self, movies):
        with pytest.raises(KeyError):
            movies.project(["missing"])

    def test_drop_columns(self, movies):
        dropped = movies.drop_columns(["title"])
        assert "title" not in dropped.column_names
        assert len(dropped) == 2

    def test_non_null_items(self):
        row = Row(row_id="r", values={"a": "x", "b": None, "c": ""})
        assert row.non_null_items() == [("a", "x")]

    def test_row_requires_id(self):
        with pytest.raises(ValueError):
            Row(row_id="", values={})


class TestTaxonomy:
    @pytest.fixture()
    def taxonomy(self):
        tax = Taxonomy()
        tax.add_concept("root", "internal audit")
        tax.add_concept("a", "audit planning", parent_id="root")
        tax.add_concept("b", "risk assessment", parent_id="root")
        tax.add_concept("a1", "materiality", parent_id="a")
        return tax

    def test_duplicate_node_rejected(self, taxonomy):
        with pytest.raises(ValueError):
            taxonomy.add_concept("root", "again")

    def test_roots_and_children(self, taxonomy):
        assert [n.node_id for n in taxonomy.roots()] == ["root"]
        assert {n.node_id for n in taxonomy.children("root")} == {"a", "b"}

    def test_parent_and_leaf(self, taxonomy):
        assert taxonomy.parent("a1").node_id == "a"
        assert taxonomy.parent("root") is None
        assert taxonomy.children("a1") == []
        assert taxonomy.children("a")

    def test_path_to_root(self, taxonomy):
        assert taxonomy.path_to_root("a1") == ["root", "a", "a1"]

    def test_label_path(self, taxonomy):
        assert taxonomy.label_path("a1") == ["internal audit", "audit planning", "materiality"]

    def test_depth_and_max_depth(self, taxonomy):
        assert taxonomy.depth("root") == 1
        assert taxonomy.depth("a1") == 3
        assert taxonomy.max_depth() == 3

    def test_validate_detects_unknown_parent(self):
        tax = Taxonomy()
        tax.add_concept("x", "orphan", parent_id="missing")
        with pytest.raises(ValueError):
            tax.validate()

    def test_validate_detects_cycles(self):
        tax = Taxonomy()
        tax.add(ConceptNode(node_id="a", label="a", parent_id="b"))
        tax.add(ConceptNode(node_id="b", label="b", parent_id="a"))
        with pytest.raises(ValueError):
            tax.validate()

    def test_concept_requires_label(self):
        with pytest.raises(ValueError):
            ConceptNode(node_id="x", label="")

    def test_path_of_unknown_node_raises(self, taxonomy):
        with pytest.raises(KeyError):
            taxonomy.path_to_root("nope")


class TestSerialization:
    def test_serialize_row_with_markers(self):
        row = Row(row_id="r", values={"title": "Pulp Fiction", "year": 1994})
        text = serialize_row(row)
        assert text == "[COL] title [VAL] Pulp Fiction [COL] year [VAL] 1994"

    def test_serialize_row_without_markers(self):
        row = Row(row_id="r", values={"title": "Pulp Fiction", "year": 1994})
        assert serialize_row(row, include_markers=False) == "Pulp Fiction 1994"

    def test_serialize_row_skips_nulls(self):
        row = Row(row_id="r", values={"a": None, "b": "x", "c": "  "})
        assert serialize_row(row) == "[COL] b [VAL] x"

    def test_serialize_row_column_order(self):
        row = Row(row_id="r", values={"a": "1", "b": "2"})
        assert serialize_row(row, columns=["b", "a"], include_markers=False) == "2 1"
