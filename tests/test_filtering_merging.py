"""Tests for data-node filtering strategies and node merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.pretrained import build_synthetic_pretrained, synonym_pairs_from_clusters
from repro.graph.filtering import (
    TFIDF_TOP_K,
    BulkIntersectFilter,
    BulkNoFilter,
    BulkTfIdfFilter,
)
from repro.graph.graph import NodeKind
from repro.graph.merging import (
    EmbeddingMerger,
    NumericBucketer,
    freedman_diaconis_width,
)
from tests.oracles.graph import bucketing_reference, embedding_merge_reference, graph_of


def _interned(first_docs, second_docs):
    """Intern string documents as the graph builder does.

    Returns the id → term table and the per-document arrays of unique ids
    (first-occurrence order) of both corpora.
    """
    terms, index = [], {}

    def ids(doc):
        for term in doc:
            if term not in index:
                index[term] = len(terms)
                terms.append(term)
        return np.asarray([index[term] for term in dict.fromkeys(doc)], dtype=np.int32)

    return terms, [ids(doc) for doc in first_docs], [ids(doc) for doc in second_docs]


def _decode(terms, ids):
    return [terms[i] for i in ids.tolist()]


class TestIntersectFilter:
    def test_anchor_is_smaller_vocabulary(self):
        terms, first, second = _interned([["a", "b"]], [["a", "b", "c", "d"]])
        assert BulkIntersectFilter(first, second, len(terms)).anchor == "first"

    def test_anchor_switches_to_second(self):
        terms, first, second = _interned([["a", "b", "c", "d"]], [["a", "b"]])
        assert BulkIntersectFilter(first, second, len(terms)).anchor == "second"

    def test_non_anchor_terms_filtered(self):
        terms, first, second = _interned([["a", "b"]], [["a", "c"]])
        filt = BulkIntersectFilter(first, second, len(terms))
        assert _decode(terms, filt.keep_second(second[0])) == ["a"]
        assert _decode(terms, filt.keep_first(first[0])) == ["a", "b"]

    def test_tie_prefers_first_corpus(self):
        terms, first, second = _interned([["a", "b"]], [["c", "d"]])
        assert BulkIntersectFilter(first, second, len(terms)).anchor == "first"


class TestNoFilter:
    def test_everything_kept(self):
        terms, first, second = _interned([["a", "x"]], [["b", "y"]])
        filt = BulkNoFilter()
        assert _decode(terms, filt.keep_first(first[0])) == ["a", "x"]
        assert _decode(terms, filt.keep_second(second[0])) == ["b", "y"]


class TestTfIdfFilter:
    def test_top_k_terms_kept(self):
        long_doc = [f"term{i:02d}" for i in range(TFIDF_TOP_K + 2)]
        terms, first, second = _interned([long_doc, ["term00"]], [long_doc])
        filt = BulkTfIdfFilter(first, second, terms)
        assert len(filt.keep_first(first[0])) == TFIDF_TOP_K == 10

    def test_rare_term_beats_common_term(self):
        # Equal scores keep the lexicographically first terms.
        common = [f"common{i}" for i in range(TFIDF_TOP_K)]
        docs = [["rare"] + common, common, common, common + ["other"]]
        terms, first, second = _interned(docs, docs)
        filt = BulkTfIdfFilter(first, second, terms)
        assert _decode(terms, filt.keep_first(first[0])) == ["rare"] + common[:-1]


class TestFreedmanDiaconis:
    def test_known_width(self):
        values = list(range(1, 101))
        width = freedman_diaconis_width(values)
        # IQR of 1..100 is ~49.5-50, n^(1/3) ~ 4.64
        assert 18 < width < 24

    def test_single_value(self):
        assert freedman_diaconis_width([5.0]) == 1.0

    def test_zero_iqr_falls_back_to_range(self):
        assert freedman_diaconis_width([3, 3, 3, 3, 9]) == 6.0

    def test_all_equal_values(self):
        assert freedman_diaconis_width([2, 2, 2, 2]) == 1.0


def assert_same_graph(graph, expected):
    assert graph.nodes() == expected.nodes()
    assert set(graph.edges()) == set(expected.edges())
    for label in graph.nodes():
        assert graph.node_info(label) == expected.node_info(label)


class TestNumericBucketer:
    def _graph_with_numbers(self):
        # Freedman–Diaconis width 84.5 from 10: two buckets of four.
        values = ("10", "11", "12", "13", "95", "96", "97", "98", "text")
        return graph_of(
            [("t1", NodeKind.METADATA)] + [(value, NodeKind.DATA) for value in values],
            [("t1", value) for value in values],
        )

    def test_close_numbers_merge(self):
        report = NumericBucketer().apply(self._graph_with_numbers())
        assert len(report.merged_pairs) == 8
        remaining_numeric = [n for n in report.graph.data_nodes() if n[0].isdigit()]
        assert remaining_numeric == []

    def test_bucket_nodes_created(self):
        graph = NumericBucketer().apply(self._graph_with_numbers()).graph
        buckets = [n for n in graph.data_nodes() if n.startswith("num[")]
        assert buckets == ["num[10.0,94.5)#0", "num[94.5,179.0)#1"]
        assert graph.nodes()[-2:] == buckets  # appended after the graph's own nodes
        assert graph.node_info(buckets[0]).corpus == "both"

    def test_text_nodes_untouched(self):
        source = self._graph_with_numbers()
        graph = NumericBucketer().apply(source).graph
        assert graph.has_node("text")
        assert source.has_node("10")  # the source graph is not modified

    def test_no_numbers_is_noop(self):
        graph = graph_of([("alpha", NodeKind.DATA)])
        report = NumericBucketer().apply(graph)
        assert len(report.merged_pairs) == 0
        assert report.graph is graph

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True),
        edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    )
    def test_matches_merge_nodes_oracle(self, values, edges):
        # Members' edges move to their bucket node, including edges between
        # members of one bucket (dropped as self-loops) and of two buckets.
        labels = ["m1", "m2"] + [str(v) for v in values]
        graph = graph_of(
            [("m1", NodeKind.METADATA), ("m2", NodeKind.METADATA)] + [str(v) for v in values],
            [(labels[u % len(labels)], labels[v % len(labels)]) for u, v in edges],
        )
        report = NumericBucketer().apply(graph)
        buckets = {}
        for bucket, member in report.merged_pairs:
            buckets.setdefault(bucket, []).append(member)
        assert_same_graph(report.graph, bucketing_reference(graph, buckets))

    def test_bucket_label_format(self):
        label = NumericBucketer.bucket_label(12.0, 5.0, 10.0)
        assert label == "num[10.0,15.0)#0"

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        origin=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
        index_a=st.integers(min_value=-10_000, max_value=10_000),
        index_b=st.integers(min_value=-10_000, max_value=10_000),
    )
    def test_distinct_bucket_indices_never_share_a_label(self, width, origin, index_a, index_b):
        # The "%g" bounds used to collapse for narrow buckets at large
        # origins; the label now embeds the bucket index, so two distinct
        # buckets can never render identically.
        value_a = origin + (index_a + 0.5) * width
        value_b = origin + (index_b + 0.5) * width
        ia = NumericBucketer.bucket_index(value_a, width, origin)
        ib = NumericBucketer.bucket_index(value_b, width, origin)
        la = NumericBucketer.bucket_label(value_a, width, origin)
        lb = NumericBucketer.bucket_label(value_b, width, origin)
        assert (la == lb) == (ia == ib)

    def test_narrow_buckets_at_large_origin_stay_distinct(self):
        # Regression: a bucket width of ~0.02 near 1e7 — "%g" rendered both
        # buckets' bounds as "1e+07", silently merging them into one node.
        values = [f"10000000.0{cluster}0{digit}" for cluster in "012" for digit in "123"]
        graph = graph_of(
            [("t1", NodeKind.METADATA)] + [(value, NodeKind.DATA) for value in values],
            [("t1", value) for value in values],
        )
        assert freedman_diaconis_width([float(v) for v in values]) == pytest.approx(0.019, abs=1e-3)
        report = NumericBucketer().apply(graph)
        buckets = [n for n in report.graph.data_nodes() if n.startswith("num[")]
        assert len(buckets) == 2  # one per bucket, not one shared label
        assert len(report.merged_pairs) == 9

    def test_bucket_label_collision_with_existing_node_renames(self):
        # A pre-existing text term that happens to spell the bucket label
        # of 10 and 11 (12 lands in the next bucket).
        clash = NumericBucketer.bucket_label(10.0, freedman_diaconis_width([10, 11, 12]), 10.0)
        graph = graph_of(
            [("t1", NodeKind.METADATA), "10", "11", "12", clash, ("other", NodeKind.METADATA)],
            [("t1", "10"), ("t1", "11"), ("t1", "12"), (clash, "other")],
        )
        report = NumericBucketer().apply(graph)
        merged = report.graph
        # The clashing node keeps its own identity and edges...
        assert merged.neighbors(clash) == ["other"]
        # ...and the bucket went in under a renamed label.
        renamed = [keep for keep, _absorbed in report.merged_pairs]
        assert all(label != clash for label in renamed)
        assert merged.neighbors(clash + "~") == ["t1"]


class TestEmbeddingMerger:
    @pytest.fixture()
    def pretrained(self):
        clusters = {"willis": ["bruce willis", "b willis", "willis"]}
        return build_synthetic_pretrained(clusters, general_vocabulary=["movie", "film"])

    def test_calibrate_threshold(self, pretrained):
        merger = EmbeddingMerger(pretrained)
        clusters = {"willis": ["bruce willis", "b willis", "willis"]}
        gamma = merger.calibrate_threshold(synonym_pairs_from_clusters(clusters))
        assert 0.3 < gamma <= 1.0

    def test_apply_merges_name_variants(self, pretrained):
        graph = graph_of(
            [
                ("t1", NodeKind.METADATA),
                ("p1", NodeKind.METADATA),
                "bruce willis",
                "b willis",
                "thriller",
            ],
            [("t1", "bruce willis"), ("p1", "b willis"), ("t1", "thriller")],
        )
        merger = EmbeddingMerger(pretrained, threshold=0.8)
        report = merger.apply(graph)
        assert len(report.merged_pairs) == 1
        # The surviving node bridges the two metadata nodes.
        survivor = report.merged_pairs[0][0]
        assert set(report.graph.neighbors(survivor)) == {"t1", "p1"}
        assert graph.num_nodes() == 5  # the source graph is not modified

    def test_apply_without_threshold_raises(self, pretrained):
        with pytest.raises(ValueError):
            EmbeddingMerger(pretrained).apply(graph_of([]))

    def test_unrelated_nodes_not_merged(self, pretrained):
        merger = EmbeddingMerger(pretrained, threshold=0.95)
        report = merger.apply(graph_of(["thriller", "planning"]))
        assert len(report.merged_pairs) == 0

    def test_candidate_keys_in_first_occurrence_order(self):
        # Each label's keys (its tokens, then its 4-character prefix) are
        # taken in first-occurrence order, not a set's hash order: the
        # buckets, and so the candidate pairs, follow the graph.
        graph = graph_of(["beta alpha", "alpha", "beta", "betamax"])
        pairs = EmbeddingMerger(None, threshold=0.5)._candidate_pairs(graph)
        assert pairs == [
            ("beta", "beta alpha"),
            ("beta", "betamax"),
            ("beta alpha", "betamax"),
            ("alpha", "beta alpha"),
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        words=st.lists(
            st.sampled_from(["willis", "willy", "will", "bruce", "brown", "b", "wil"]),
            min_size=2,
            max_size=10,
        ),
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=24),
        threshold=st.sampled_from([0.3, 0.6, 0.9]),
    )
    def test_matches_merge_nodes_oracle_over_candidate_list(self, words, edges, threshold):
        labels = list(dict.fromkeys(" ".join(words[i : i + 2]) for i in range(len(words))))
        labels = ["m1", "m2"] + labels
        graph = graph_of(
            [("m1", NodeKind.METADATA), ("m2", NodeKind.METADATA)] + labels[2:],
            [(labels[u % len(labels)], labels[v % len(labels)]) for u, v in edges],
        )
        clusters = {"w": ["willis", "willy", "will", "wil"], "b": ["bruce", "brown", "b"]}
        merger = EmbeddingMerger(build_synthetic_pretrained(clusters), threshold=threshold)
        report = merger.apply(graph)
        expected = embedding_merge_reference(graph, merger, merger._candidate_pairs(graph))
        assert_same_graph(report.graph, expected)

    def test_calibration_with_unknown_terms_only_raises(self):
        class _Empty:
            def vector(self, term):
                return None

        merger = EmbeddingMerger(_Empty())
        with pytest.raises(ValueError):
            merger.calibrate_threshold([("a", "b")])
