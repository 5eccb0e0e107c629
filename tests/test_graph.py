"""Tests for the MatchGraph data structure and the dict-of-sets oracle graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import MatchGraph, NodeInfo, NodeKind, dedup_edge_ids
from tests.oracles.graph import ReferenceGraph, graph_of

SMALL_NODES = [
    ("p1", NodeKind.METADATA, "second", "document"),
    ("t1", NodeKind.METADATA, "first", "tuple"),
    ("willis", NodeKind.DATA, "first", "term"),
    ("thriller", NodeKind.DATA, "first", "term"),
    ("pg", NodeKind.DATA, "first", "term"),
]
SMALL_EDGES = [("p1", "willis"), ("t1", "willis"), ("t1", "thriller"), ("t1", "pg")]


@pytest.fixture()
def small_graph():
    """p1 - willis - t1 - thriller, plus t1 - pg."""
    return graph_of(SMALL_NODES, SMALL_EDGES)


def registry(graph):
    return graph.labels, graph.kinds, graph.corpora, graph.roles


class TestFromEdges:
    def test_duplicates_in_either_orientation_kept_once(self):
        g = MatchGraph.from_edges(*registry(graph_of("abc")), [0, 1, 0, 0], [1, 0, 2, 1])
        assert g.num_edges() == 2
        assert sorted(g.edges()) == [("a", "b"), ("a", "c")]

    def test_self_loops_dropped(self):
        g = MatchGraph.from_edges(*registry(graph_of("ab")), [0, 1, 0], [0, 1, 1])
        assert g.num_edges() == 1
        assert g.degree("a") == 1

    def test_rows_sorted_by_neighbour_id(self):
        g = MatchGraph.from_edges(*registry(graph_of("abcd")), [3, 0, 2, 3], [0, 1, 0, 1])
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        for i in range(g.num_nodes()):
            row = g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()
            assert row == sorted(row)
        assert g.neighbors("a") == ["b", "c", "d"]

    def test_empty_graph(self):
        g = MatchGraph.from_edges([], [], [], [], [], [])
        assert g.num_nodes() == 0 and g.num_edges() == 0
        assert g.indptr.tolist() == [0]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=25),
    )
    def test_matches_the_dict_of_sets_graph(self, n, pairs):
        pairs = [(u % n, v % n) for u, v in pairs]
        labels = [f"n{i}" for i in range(n)]
        reference = ReferenceGraph()
        for label in labels:
            reference.add_node(label)
        for u, v in pairs:
            reference.add_edge(labels[u], labels[v])
        g = MatchGraph.from_edges(
            *registry(reference.freeze()), [u for u, _ in pairs], [v for _, v in pairs]
        )
        assert g.nodes() == reference.nodes()
        assert set(g.edges()) == set(reference.edges())
        assert g.num_edges() == reference.num_edges()
        for label in labels:
            assert set(g.neighbors(label)) == reference.neighbors(label)
        assert int(g.degrees().sum()) == 2 * g.num_edges()


class TestReads:
    def test_registry(self, small_graph):
        assert small_graph.node_info("t1") == NodeInfo("t1", NodeKind.METADATA, "first", "tuple")
        assert small_graph.nodes() == ["p1", "t1", "willis", "thriller", "pg"]
        assert small_graph.ids["willis"] == 2
        assert "pg" in small_graph and not small_graph.has_node("ghost")
        assert small_graph.num_nodes() == 5

    def test_metadata_nodes_filtered_by_corpus_and_role(self, small_graph):
        assert small_graph.metadata_nodes(corpus="first") == ["t1"]
        assert small_graph.metadata_nodes(role="document") == ["p1"]
        assert small_graph.data_nodes() == ["willis", "thriller", "pg"]
        assert small_graph.metadata_mask().tolist() == [True, True, False, False, False]

    def test_degrees_and_neighbors(self, small_graph):
        assert small_graph.degree("t1") == 3
        assert small_graph.degrees().tolist() == [1, 3, 2, 1, 1]
        assert small_graph.neighbors("willis") == ["p1", "t1"]

    def test_edge_ids_in_lo_hi_order(self, small_graph):
        lo, hi = small_graph.edge_ids()
        assert list(zip(lo.tolist(), hi.tolist())) == [(0, 2), (1, 2), (1, 3), (1, 4)]
        assert set(small_graph.edges()) == {
            ("p1", "willis"), ("t1", "willis"), ("t1", "thriller"), ("pg", "t1")
        }

    def test_encode(self, small_graph):
        ids = small_graph.encode(["pg", "p1"])
        assert ids.dtype == np.int32 and ids.tolist() == [4, 0]


class TestNewGraphs:
    def test_append_adds_nodes_after_and_drops_known_edges(self, small_graph):
        grown = small_graph.append(
            ["bruce"], [NodeKind.DATA], ["external"], ["external"], [5, 0], [2, 2]
        )
        assert grown.nodes()[-1] == "bruce"
        assert grown.node_info("bruce").corpus == "external"
        assert grown.num_edges() == small_graph.num_edges() + 1
        assert grown.neighbors("bruce") == ["willis"]
        assert small_graph.num_nodes() == 5  # the source graph is untouched

    def test_keep_induces_subgraph_in_source_order(self, small_graph):
        kept = small_graph.keep(np.array([True, True, True, False, False]))
        assert kept.nodes() == ["p1", "t1", "willis"]
        assert set(kept.edges()) == {("p1", "willis"), ("t1", "willis")}
        assert kept.node_info("t1") == small_graph.node_info("t1")

    def test_keep_with_edges_keeps_only_those_between_kept_nodes(self, small_graph):
        kept = small_graph.keep(np.array([False, True, True, True, True]), [1, 0, 1], [3, 2, 3])
        assert kept.nodes() == ["t1", "willis", "thriller", "pg"]
        assert list(kept.edges()) == [("t1", "thriller")]

    def test_keep_drops_repeated_and_reversed_edge_pairs(self, small_graph):
        # MSP and SSP hand over the edges of every shortest-path DAG they
        # swept, so one edge may arrive several times, in either direction.
        kept = small_graph.keep(np.ones(5, dtype=bool), [0, 2, 0, 1, 3], [2, 0, 2, 3, 1])
        assert kept.num_edges() == 2
        assert set(kept.edges()) == {("p1", "willis"), ("t1", "thriller")}

    def test_append_and_keep_match_the_oracle_edits(self, small_graph):
        reference = ReferenceGraph.thaw(small_graph)
        reference.add_node("bruce", kind=NodeKind.DATA, corpus="external", role="external")
        reference.add_edge("bruce", "willis")
        reference.remove_node("pg")
        grown = small_graph.append(["bruce"], [NodeKind.DATA], ["external"], ["external"], [5], [2])
        kept = grown.keep(np.array(grown.labels) != "pg")
        assert kept.nodes() == reference.nodes()
        assert set(kept.edges()) == set(reference.edges())
        for label in kept.nodes():
            assert kept.node_info(label) == reference.node_info(label)


@st.composite
def graphs_with_mask(draw):
    """A random reference graph, its frozen copy and a node mask over it."""
    n = draw(st.integers(min_value=1, max_value=9))
    reference = ReferenceGraph()
    for i in range(n):
        kind = NodeKind.METADATA if draw(st.booleans()) else NodeKind.DATA
        reference.add_node(f"n{i}", kind=kind)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)):
        reference.add_edge(f"n{u}", f"n{v}")
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return reference, reference.freeze(), np.array(mask, dtype=bool)


class TestNewGraphsMatchOracleEdits:
    @settings(max_examples=40, deadline=None)
    @given(spec=graphs_with_mask())
    def test_keep_equals_removing_the_other_nodes(self, spec):
        reference, graph, mask = spec
        for label, kept in zip(graph.labels, mask):
            if not kept:
                reference.remove_node(label)
        kept_graph = graph.keep(mask)
        assert kept_graph.nodes() == reference.nodes()
        assert set(kept_graph.edges()) == set(reference.edges())
        assert [kept_graph.node_info(label) for label in kept_graph.nodes()] == [
            reference.node_info(label) for label in reference.nodes()
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        spec=graphs_with_mask(),
        new=st.integers(min_value=0, max_value=3),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12),
    )
    def test_append_equals_adding_nodes_then_edges(self, spec, new, pairs):
        reference, graph, _mask = spec
        labels = graph.labels + [f"new{i}" for i in range(new)]
        pairs = [(u % len(labels), v % len(labels)) for u, v in pairs]
        for label in labels[graph.num_nodes():]:
            reference.add_node(label, kind=NodeKind.DATA, corpus="external", role="external")
        for u, v in pairs:
            reference.add_edge(labels[u], labels[v])
        grown = graph.append(
            labels[graph.num_nodes():],
            [NodeKind.DATA] * new,
            ["external"] * new,
            ["external"] * new,
            [u for u, _ in pairs],
            [v for _, v in pairs],
        )
        assert grown.nodes() == reference.nodes()
        assert set(grown.edges()) == set(reference.edges())
        assert grown.num_edges() == reference.num_edges()

    def test_keep_everything_is_the_same_graph(self, small_graph):
        kept = small_graph.keep(np.ones(small_graph.num_nodes(), dtype=bool))
        assert registry(kept) == registry(small_graph)
        assert np.array_equal(kept.indptr, small_graph.indptr)
        assert np.array_equal(kept.indices, small_graph.indices)


class TestDedupEdgeIds:
    def test_normalises_and_dedups(self):
        u = np.array([1, 2, 0, 2, 3])
        v = np.array([2, 1, 0, 1, 1])
        lo, hi = dedup_edge_ids(u, v, 4)
        assert list(zip(lo.tolist(), hi.tolist())) == [(1, 2), (1, 3)]

    def test_empty(self):
        lo, hi = dedup_edge_ids(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
        assert lo.size == 0 and hi.size == 0


# ----------------------------------------------------------------------
# The dict-of-sets oracle graph
@pytest.fixture()
def reference_graph():
    graph = ReferenceGraph()
    for node in SMALL_NODES:
        graph.add_node(*node)
    for u, v in SMALL_EDGES:
        graph.add_edge(u, v)
    return graph


class TestReferenceGraph:
    def test_add_node_returns_true_once(self):
        g = ReferenceGraph()
        assert g.add_node("a") is True
        assert g.add_node("a") is False

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            ReferenceGraph().add_node("")

    def test_corpus_becomes_both_when_seen_twice(self):
        g = ReferenceGraph()
        g.add_node("term", corpus="first")
        g.add_node("term", corpus="second")
        assert g.node_info("term").corpus == "both"

    def test_add_edge_requires_nodes_and_ignores_self_loops(self):
        g = ReferenceGraph()
        g.add_node("a")
        with pytest.raises(KeyError):
            g.add_edge("a", "missing")
        assert g.add_edge("a", "a") is False
        assert g.num_edges() == 0

    def test_remove_node_removes_edges(self, reference_graph):
        reference_graph.remove_node("willis")
        assert not reference_graph.has_node("willis")
        assert reference_graph.degree("p1") == 0
        assert reference_graph.num_edges() == 2

    def test_merge_nodes_redirects_edges(self, reference_graph):
        reference_graph.add_node("b willis", kind=NodeKind.DATA)
        reference_graph.add_edge("p1", "b willis")
        reference_graph.add_edge("pg", "b willis")
        reference_graph.merge_nodes("willis", "b willis")
        assert not reference_graph.has_node("b willis")
        assert reference_graph.has_edge("pg", "willis")

    def test_remove_sink_nodes(self, reference_graph):
        unprotected = reference_graph.copy()
        assert reference_graph.remove_sink_nodes() == 2  # thriller and pg
        assert reference_graph.has_node("p1") and reference_graph.has_node("t1")
        assert unprotected.remove_sink_nodes(protect_metadata=False) == 3  # and p1
        assert not unprotected.has_node("p1")

    def test_freeze_thaw_roundtrip(self, reference_graph):
        frozen = reference_graph.freeze()
        assert frozen.nodes() == reference_graph.nodes()
        assert set(frozen.edges()) == set(reference_graph.edges())
        thawed = ReferenceGraph.thaw(frozen)
        assert thawed.nodes() == reference_graph.nodes()
        assert set(thawed.edges()) == set(reference_graph.edges())

    def test_shortest_path(self, reference_graph):
        assert reference_graph.shortest_path("p1", "thriller") == ["p1", "willis", "t1", "thriller"]
        assert reference_graph.shortest_path("p1", "p1") == ["p1"]
        reference_graph.add_node("island")
        assert reference_graph.shortest_path("p1", "island") is None
        with pytest.raises(KeyError):
            reference_graph.shortest_path("p1", "missing")

    def test_all_shortest_paths(self):
        # a - b - d and a - c - d are both shortest.
        g = ReferenceGraph()
        for n in "abcd":
            g.add_node(n)
        for u, v in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            g.add_edge(u, v)
        assert sorted(g.all_shortest_paths("a", "d")) == [["a", "b", "d"], ["a", "c", "d"]]
        assert len(g.all_shortest_paths("a", "d", limit=1)) == 1

    def test_all_shortest_paths_agree_with_networkx(self, reference_graph):
        import networkx as nx

        expected = sorted(nx.all_shortest_paths(reference_graph.to_networkx(), "p1", "thriller"))
        assert sorted(reference_graph.all_shortest_paths("p1", "thriller")) == expected

    def test_connected_component(self, reference_graph):
        reference_graph.add_node("island")
        component = reference_graph.connected_component("p1")
        assert "island" not in component
        assert "thriller" in component
