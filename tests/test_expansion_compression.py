"""Tests for graph expansion (Algorithm 2) and compression (Algorithm 3 + baselines)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.compression import (
    msp_compress,
    random_edge_compress,
    random_node_compress,
    ssp_compress,
    ssum_compress,
)
from repro.graph.expansion import expand_graph
from repro.graph.graph import NodeKind
from repro.kb.knowledge_base import InMemoryKnowledgeBase
from tests.oracles.graph import ReferenceGraph


def build_example_reference():
    """The Figure 4 style graph: two tuples, two paragraphs, shared terms."""
    g = ReferenceGraph()
    for label in ("t1", "t2"):
        g.add_node(label, kind=NodeKind.METADATA, corpus="first", role="tuple")
    for label in ("p1", "p2"):
        g.add_node(label, kind=NodeKind.METADATA, corpus="second", role="document")
    terms = ["willis", "shyamalan", "tarantino", "thriller", "drama", "comedy", "pg"]
    for term in terms:
        g.add_node(term, kind=NodeKind.DATA)
    for u, v in [
        ("t1", "willis"), ("t1", "shyamalan"), ("t1", "thriller"), ("t1", "pg"),
        ("t2", "willis"), ("t2", "tarantino"), ("t2", "drama"),
        ("p1", "willis"), ("p1", "comedy"),
        ("p2", "shyamalan"), ("p2", "thriller"),
    ]:
        g.add_edge(u, v)
    return g


def build_example_graph():
    return build_example_reference().freeze()


@pytest.fixture()
def example_graph():
    return build_example_graph()


@pytest.fixture()
def kb():
    kb = InMemoryKnowledgeBase(name="dbpedia")
    kb.add_relation("tarantino", "style", "comedy")
    kb.add_relation("tarantino", "directorOf", "pulp fiction")
    kb.add_relation("willis", "starringOf", "pulp fiction")
    kb.add_relation("shyamalan", "spouse", "bhavna vaswani")
    return kb


class TestExpansion:
    def test_expansion_adds_nodes_and_edges(self, example_graph, kb):
        result = expand_graph(example_graph, kb)
        assert result.nodes_added >= 1
        assert result.edges_added >= 3
        assert result.graph.has_node("pulp fiction")
        assert not example_graph.has_node("pulp fiction")  # a new graph

    def test_expansion_creates_new_paths(self, example_graph, kb):
        # Before expansion p1 and t2 connect only through willis (length 2 path
        # of 3 nodes); after expansion comedy→tarantino adds another short path.
        before_paths = ReferenceGraph.thaw(example_graph).all_shortest_paths("p1", "t2")
        expanded = ReferenceGraph.thaw(expand_graph(example_graph, kb).graph)
        assert len(expanded.all_shortest_paths("p1", "t2")) >= len(before_paths)

    def test_sink_nodes_removed(self, example_graph, kb):
        # bhavna vaswani connects only to shyamalan and must be pruned.
        assert not expand_graph(example_graph, kb).graph.has_node("bhavna vaswani")

    def test_metadata_nodes_never_expanded_or_removed(self, example_graph, kb):
        kb.add_relation("t1", "bogus", "should not appear")
        expanded = expand_graph(example_graph, kb).graph
        assert not expanded.has_node("should not appear")
        for label in ("t1", "t2", "p1", "p2"):
            assert expanded.has_node(label)

    def test_expansion_result_counts_consistent(self, example_graph, kb):
        result = expand_graph(example_graph, kb)
        assert result.nodes_before == example_graph.num_nodes()
        assert result.nodes_after == result.graph.num_nodes()
        assert result.edges_after == result.graph.num_edges()

    def test_every_relation_of_a_node_is_added(self, example_graph):
        kb = InMemoryKnowledgeBase()
        for i in range(20):
            kb.add_relation("willis", "linksTo", f"filler {i} word")
        result = expand_graph(example_graph, kb)
        assert result.nodes_added == result.edges_added == 20
        # Each filler hangs off willis alone, as pg, tarantino, drama and
        # comedy hang off one metadata node each.
        assert result.sink_nodes_removed == 20 + 4
        assert not any(label.startswith("filler") for label in result.graph.labels)

    @pytest.mark.parametrize(
        "relations",
        [
            [],
            [("comedy", "drama")],  # both endpoints pre-exist
            [("thriller", "pulp fiction")],  # shared new node
            [("comedy", "drama"), ("thriller", "pulp fiction")],
            [("t1", "bogus")],  # metadata nodes are not expanded
            [("drama", " ")],  # an empty neighbour is skipped
        ],
        ids=["fixture", "existing", "shared-new", "both", "metadata", "empty"],
    )
    def test_batched_expansion_matches_per_relation_reference(self, kb, relations):
        for head, tail in relations:
            kb.add_relation(head, "relatedTo", tail)
        assert_expansion_matches_reference(kb)

    @settings(max_examples=30, deadline=None)
    @given(
        relations=st.lists(
            st.tuples(
                st.sampled_from(["willis", "drama", "comedy", "pg", "t1"]),
                st.sampled_from(["drama", "pg", "p1", "new one", "new two", "willis"]),
            ),
            max_size=10,
        ),
    )
    def test_expansion_matches_reference_on_random_resources(self, relations):
        kb = InMemoryKnowledgeBase()
        for head, tail in relations:
            kb.add_relation(head, "relatedTo", tail)
        assert_expansion_matches_reference(kb)


def assert_expansion_matches_reference(kb):
    """expand_graph appends the new nodes and edges and masks the sinks out;
    parity against the per-relation loop must be exact: same node order,
    metadata, edge set, and result counts."""
    result = expand_graph(build_example_graph(), kb)
    batched = result.graph

    reference = build_example_reference()
    nodes_added = 0
    edges_added = 0
    for label in list(reference.nodes()):
        if reference.is_metadata(label):
            continue
        for neighbor in kb.related(label):
            if not neighbor or neighbor == label:
                continue
            if not reference.has_node(neighbor):
                reference.add_node(neighbor, kind=NodeKind.DATA, corpus="external", role="external")
                nodes_added += 1
            if reference.add_edge(label, neighbor):
                edges_added += 1
    sink_removed = reference.remove_sink_nodes(protect_metadata=True)

    assert result.nodes_added == nodes_added
    assert result.edges_added == edges_added
    assert result.sink_nodes_removed == sink_removed
    assert batched.nodes() == reference.nodes()
    assert set(batched.edges()) == set(reference.edges())
    assert batched.num_edges() == reference.num_edges()
    for label in batched.nodes():
        assert batched.node_info(label) == reference.node_info(label)


class TestMspCompression:
    def test_compressed_graph_contains_all_metadata(self, example_graph):
        result = msp_compress(example_graph, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=1)
        for label in ("t1", "t2", "p1", "p2"):
            assert result.graph.has_node(label)

    def test_metadata_nodes_stay_connected(self, example_graph):
        result = msp_compress(example_graph, ["t1", "t2"], ["p1", "p2"], beta=0.25, seed=2)
        for label in ("t1", "t2", "p1", "p2"):
            assert result.graph.degree(label) >= 1

    def test_compression_reduces_or_preserves_size(self, example_graph, kb):
        expanded = expand_graph(example_graph, kb).graph
        result = msp_compress(expanded, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=3)
        assert result.nodes_after <= result.nodes_before
        assert result.node_ratio <= 1.0

    def test_compressed_edges_exist_in_original(self, example_graph):
        result = msp_compress(example_graph, ["t1", "t2"], ["p1", "p2"], beta=1.0, seed=4)
        assert set(result.graph.edges()) <= set(example_graph.edges())

    def test_deterministic_given_seed(self, example_graph):
        r1 = msp_compress(example_graph, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=7)
        r2 = msp_compress(example_graph, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=7)
        assert sorted(r1.graph.nodes()) == sorted(r2.graph.nodes())
        assert sorted(r1.graph.edges()) == sorted(r2.graph.edges())

    def test_invalid_beta(self, example_graph):
        with pytest.raises(ValueError):
            msp_compress(example_graph, ["t1"], ["p1"], beta=0.0)

    def test_requires_metadata_on_both_sides(self, example_graph):
        with pytest.raises(ValueError):
            msp_compress(example_graph, [], ["p1"], beta=0.5)

    def test_disconnected_metadata_is_kept_isolated(self):
        g = build_example_reference()
        g.add_node("t_orphan", kind=NodeKind.METADATA, corpus="first", role="tuple")
        result = msp_compress(g.freeze(), ["t1", "t2", "t_orphan"], ["p1", "p2"], beta=0.5, seed=1)
        assert result.graph.has_node("t_orphan")

    def test_method_label(self, example_graph):
        result = msp_compress(example_graph, ["t1"], ["p1"], beta=0.25, seed=1)
        assert result.method == "msp(0.25)"


class TestOtherCompressors:
    def test_ssp_runs_and_keeps_subset(self, example_graph):
        result = ssp_compress(example_graph, beta=0.5, seed=5)
        assert result.nodes_after <= result.nodes_before
        assert set(result.graph.edges()) <= set(example_graph.edges())

    def test_ssp_invalid_beta(self, example_graph):
        with pytest.raises(ValueError):
            ssp_compress(example_graph, beta=-1)

    def test_ssum_respects_target_ratio_roughly(self, example_graph, kb):
        expanded = expand_graph(example_graph, kb).graph
        data_before = len(expanded.data_nodes())
        result = ssum_compress(expanded, target_ratio=0.5, seed=6)
        # metadata nodes are never dropped; the data nodes shrink to roughly
        # the target ratio (with a small floor that keeps the graph walkable).
        data_after = len(result.graph.data_nodes())
        assert data_after <= max(int(0.5 * data_before) + 1, 4)
        assert data_after >= 1

    def test_ssum_keeps_metadata(self, example_graph):
        result = ssum_compress(example_graph, target_ratio=0.3, seed=6)
        for label in ("t1", "t2", "p1", "p2"):
            assert result.graph.has_node(label)

    def test_ssum_invalid_ratio(self, example_graph):
        with pytest.raises(ValueError):
            ssum_compress(example_graph, target_ratio=0.0)

    def test_random_node_keep_ratio(self, example_graph):
        result = random_node_compress(example_graph, keep_ratio=0.5, seed=8)
        assert result.graph.has_node("t1") and result.graph.has_node("p1")
        assert result.nodes_after <= result.nodes_before

    def test_random_edge_keep_ratio(self, example_graph):
        result = random_edge_compress(example_graph, keep_ratio=0.5, seed=9)
        assert result.edges_after <= result.edges_before
        assert set(result.graph.edges()) <= set(example_graph.edges())

    def test_random_invalid_ratio(self, example_graph):
        with pytest.raises(ValueError):
            random_node_compress(example_graph, keep_ratio=0.0)
        with pytest.raises(ValueError):
            random_edge_compress(example_graph, keep_ratio=1.5)
