"""Tests for graph compression and the compression bugfix sweep.

Covers the CSR BFS primitives (``bfs_levels``, ``shortest_path_dag_union``,
``multi_source_dag_union``), hypothesis parity of MSP/SSP compression with
the path-enumeration oracle of ``tests/oracles/compression.py`` (identical
compressed node *list*, edge set, metadata connectivity, and
:class:`CompressionResult` ratios on random graphs), the
metadata-connectivity guarantee on multi-component graphs (the
sampled-target regression), the oracle's iterative ``all_shortest_paths``
backtrack (no ``RecursionError`` on chain graphs), SSuM's keep mask against
the ``merge_nodes`` oracle and a recomputed live-degree oracle, the
draw orders of the random baselines, the seeded end-to-end
``TDMatch.match`` identity with the oracle swapped in, and the CLI.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core import pipeline as pipeline_module
from repro.core.config import CompressionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.graph.compression import (
    _merge_identical_neighborhoods,
    msp_compress,
    random_edge_compress,
    random_node_compress,
    ssp_compress,
    ssum_compress,
)
from repro.graph.csr import (
    bfs_levels,
    multi_source_dag_union,
    shortest_path_dag_union,
)
from repro.graph.graph import NodeKind
from repro.utils.rng import ensure_rng
from tests.oracles.compression import UNBOUNDED, msp_reference, ssp_reference
from tests.oracles.graph import ReferenceGraph, merge_identical_neighborhoods_reference


def _msp_oracle(graph, first, second, beta, seed, parallel=None):
    return msp_reference(graph, first, second, beta=beta, seed=seed)


def _ssp_oracle(graph, beta, seed, parallel=None):
    return ssp_reference(graph, beta=beta, seed=seed)


#: ``msp_compress`` and its oracle under one signature, for the properties
#: both must satisfy.
MSP_IMPLEMENTATIONS = {"bulk": msp_compress, "reference": _msp_oracle}


# ----------------------------------------------------------------------
# Graph construction helpers
def build_graph(n_first, n_second, n_data, edges, n_shared=0):
    """Random test graph; ``n_shared`` labels are metadata on BOTH sides.

    Shared labels model the builder's corpus-``"both"`` promotion (real
    table↔table scenarios produce unqualified ``row::<id>`` labels on both
    sides), added twice so the promotion path itself runs.
    """
    g = ReferenceGraph()
    shared = [f"s{i}" for i in range(n_shared)]
    first = [f"t{i}" for i in range(n_first)] + shared
    second = [f"p{i}" for i in range(n_second)] + shared
    data = [f"d{i}" for i in range(n_data)]
    for label in first:
        g.add_node(label, kind=NodeKind.METADATA, corpus="first", role="tuple")
    for label in second:
        g.add_node(label, kind=NodeKind.METADATA, corpus="second", role="document")
    for label in data:
        g.add_node(label, kind=NodeKind.DATA)
    labels = first + [f"p{i}" for i in range(n_second)] + data
    for u, v in edges:
        iu, iv = u % len(labels), v % len(labels)
        if iu != iv:
            g.add_edge(labels[iu], labels[iv])
    return g.freeze(), first, second


@st.composite
def random_graph(draw):
    n_first = draw(st.integers(min_value=1, max_value=3))
    n_second = draw(st.integers(min_value=1, max_value=3))
    n_data = draw(st.integers(min_value=0, max_value=8))
    n_shared = draw(st.integers(min_value=0, max_value=2))
    n_nodes = n_first + n_second + n_data + n_shared
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=n_nodes - 1),
            ),
            max_size=2 * n_nodes,
        )
    )
    return build_graph(n_first, n_second, n_data, edges, n_shared=n_shared)


def example_graph():
    """The Figure 4 style graph used across the compression tests."""
    g = ReferenceGraph()
    for label in ("t1", "t2"):
        g.add_node(label, kind=NodeKind.METADATA, corpus="first", role="tuple")
    for label in ("p1", "p2"):
        g.add_node(label, kind=NodeKind.METADATA, corpus="second", role="document")
    for term in ("willis", "shyamalan", "tarantino", "thriller", "drama", "comedy", "pg"):
        g.add_node(term, kind=NodeKind.DATA)
    for u, v in [
        ("t1", "willis"), ("t1", "shyamalan"), ("t1", "thriller"), ("t1", "pg"),
        ("t2", "willis"), ("t2", "tarantino"), ("t2", "drama"),
        ("p1", "willis"), ("p1", "comedy"),
        ("p2", "shyamalan"), ("p2", "thriller"),
    ]:
        g.add_edge(u, v)
    return g.freeze()


def line_graph(labels, edges):
    g = ReferenceGraph()
    for label in labels:
        g.add_node(label)
    for u, v in edges:
        g.add_edge(u, v)
    return g


# ----------------------------------------------------------------------
# CSR BFS primitives
class TestBfsPrimitives:
    def path_csr(self, length=6):
        labels = [f"n{i}" for i in range(length)]
        g = line_graph(labels, zip(labels, labels[1:]))
        return g, g.freeze()

    def test_bfs_levels_path(self):
        _g, csr = self.path_csr(6)
        levels = bfs_levels(csr, 0)
        assert levels.tolist() == [0, 1, 2, 3, 4, 5]

    def test_bfs_levels_unreachable(self):
        csr = line_graph("abc", [("a", "b")]).freeze()
        levels = bfs_levels(csr, 0)
        assert levels[csr.ids["c"]] == -1

    def test_bfs_levels_early_stop_any_still_complete(self):
        # stop="any" must finish the level it stops at.
        csr = line_graph(
            ("s", "a", "b", "t1", "t2"), [("s", "a"), ("s", "b"), ("a", "t1"), ("b", "t2")]
        ).freeze()
        targets = np.array([csr.ids["t1"], csr.ids["t2"]])
        levels = bfs_levels(csr, csr.ids["s"], targets=targets, stop="any")
        # Both targets live at level 2; the full level is assigned.
        assert levels[targets].tolist() == [2, 2]

    def test_bfs_levels_invalid_stop(self):
        _g, csr = self.path_csr(3)
        with pytest.raises(ValueError):
            bfs_levels(csr, 0, stop="never")

    def test_dag_union_matches_all_shortest_paths(self):
        csr = example_graph()
        paths = ReferenceGraph.thaw(csr).all_shortest_paths("t2", "p2", limit=UNBOUNDED)
        expected_nodes = {node for path in paths for node in path}
        expected_edges = {
            tuple(sorted(e)) for path in paths for e in zip(path, path[1:])
        }
        nodes, eu, ev = shortest_path_dag_union(
            csr, csr.ids["t2"], np.array([csr.ids["p2"]])
        )
        got_nodes = {csr.labels[i] for i in nodes.tolist()}
        got_edges = {
            tuple(sorted((csr.labels[a], csr.labels[b])))
            for a, b in zip(eu.tolist(), ev.tolist())
        }
        assert got_nodes == expected_nodes
        assert got_edges == expected_edges

    def test_dag_union_unreachable_target_is_empty(self):
        csr = line_graph("abc", [("a", "b")]).freeze()
        nodes, eu, ev = shortest_path_dag_union(csr, 0, np.array([csr.ids["c"]]))
        assert nodes.size == 0 and eu.size == 0 and ev.size == 0

    def test_dag_union_source_equals_target(self):
        _g, csr = self.path_csr(4)
        nodes, eu, ev = shortest_path_dag_union(csr, 2, np.array([2]))
        assert nodes.tolist() == [2]
        assert eu.size == 0 and ev.size == 0

    def test_multi_source_matches_single_source(self):
        csr = example_graph()
        sources = [csr.ids["t1"], csr.ids["t2"]]
        targets = [
            np.array([csr.ids["p1"], csr.ids["p2"]]),
            np.array([csr.ids["p1"]]),
        ]
        nodes, eu, ev = multi_source_dag_union(csr, np.array(sources), targets)
        expected_nodes = set()
        expected_edges = set()
        for source, target_ids in zip(sources, targets):
            n1, u1, v1 = shortest_path_dag_union(csr, source, target_ids)
            expected_nodes.update(n1.tolist())
            expected_edges.update(
                (min(a, b), max(a, b)) for a, b in zip(u1.tolist(), v1.tolist())
            )
        assert set(nodes.tolist()) == expected_nodes
        got_edges = {(min(a, b), max(a, b)) for a, b in zip(eu.tolist(), ev.tolist())}
        assert got_edges == expected_edges

    def test_multi_source_chunking_is_invariant(self):
        csr = example_graph()
        sources = np.array([csr.ids["t1"], csr.ids["t2"], csr.ids["p1"]])
        targets = [
            np.array([csr.ids["p2"]]),
            np.array([csr.ids["p1"], csr.ids["p2"]]),
            np.array([csr.ids["t1"]]),
        ]
        whole = multi_source_dag_union(csr, sources, targets)
        # max_state_entries below n forces one-group chunks.
        chunked = multi_source_dag_union(csr, sources, targets, max_state_entries=1)
        assert set(whole[0].tolist()) == set(chunked[0].tolist())
        canonical = lambda u, v: {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}  # noqa: E731
        assert canonical(whole[1], whole[2]) == canonical(chunked[1], chunked[2])


# ----------------------------------------------------------------------
# The oracle's iterative all_shortest_paths (RecursionError regression)
class TestIterativeBacktrack:
    def test_long_chain_does_not_recurse(self):
        length = 2000  # far beyond the default recursion limit
        labels = [f"n{i}" for i in range(length)]
        g = line_graph(labels, zip(labels, labels[1:]))
        paths = g.all_shortest_paths(labels[0], labels[-1])
        assert len(paths) == 1
        assert paths[0] == labels

    def test_enumeration_matches_limit_semantics(self):
        # Diamond of diamonds: 4 shortest paths; the limit truncates.
        g = line_graph(
            ("s", "a", "b", "m", "c", "d", "t"),
            [
                ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
            ],
        )
        paths = g.all_shortest_paths("s", "t", limit=UNBOUNDED)
        assert len(paths) == 4
        assert all(len(path) == 5 for path in paths)
        assert len(g.all_shortest_paths("s", "t", limit=3)) == 3


# ----------------------------------------------------------------------
# Parity with the path-enumeration oracle
class TestCompressionEngineParity:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_spec=random_graph(),
        beta=st.sampled_from([0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_msp_parity(self, graph_spec, beta, seed):
        graph, first, second = graph_spec
        reference = msp_reference(graph, first, second, beta=beta, seed=seed)
        bulk = msp_compress(graph, first, second, beta=beta, seed=seed)
        # Node LIST (not just set): canonical order is what keeps CSR node
        # ids — and therefore seeded downstream walks — engine-independent.
        assert reference.graph.nodes() == bulk.graph.nodes()
        assert set(reference.graph.edges()) == set(bulk.graph.edges())
        assert reference.graph.num_edges() == bulk.graph.num_edges()
        assert reference.nodes_before == bulk.nodes_before
        assert reference.edges_before == bulk.edges_before
        assert reference.node_ratio == bulk.node_ratio
        for label in reference.graph.nodes():
            assert reference.graph.node_info(label) == bulk.graph.node_info(label)

    @settings(max_examples=60, deadline=None)
    @given(
        graph_spec=random_graph(),
        beta=st.sampled_from([0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ssp_parity(self, graph_spec, beta, seed):
        graph, _first, _second = graph_spec
        reference = ssp_reference(graph, beta=beta, seed=seed)
        bulk = ssp_compress(graph, beta=beta, seed=seed)
        assert reference.graph.nodes() == bulk.graph.nodes()
        assert set(reference.graph.edges()) == set(bulk.graph.edges())
        assert reference.node_ratio == bulk.node_ratio

    @settings(max_examples=40, deadline=None)
    @given(
        graph_spec=random_graph(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        engine=st.sampled_from(sorted(MSP_IMPLEMENTATIONS)),
    )
    def test_metadata_connectivity_guarantee(self, graph_spec, seed, engine):
        # Every metadata node with a reachable other-side partner in the
        # original graph must end up connected in the compressed graph.
        graph, first, second = graph_spec
        result = MSP_IMPLEMENTATIONS[engine](graph, first, second, beta=0.3, seed=seed)
        reference = ReferenceGraph.thaw(graph)
        for side, other in ((first, second), (second, first)):
            for label in side:
                component = reference.connected_component(label)
                reachable = any(o in component for o in other if o != label)
                assert result.graph.has_node(label)
                if reachable:
                    assert result.graph.degree(label) >= 1, (
                        f"{label} reachable but left bare by {engine}"
                    )

    def test_deterministic_given_seed_both_engines(self):
        g = example_graph()
        for compress in MSP_IMPLEMENTATIONS.values():
            r1 = compress(g, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=7)
            r2 = compress(g, ["t1", "t2"], ["p1", "p2"], beta=0.5, seed=7)
            assert r1.graph.nodes() == r2.graph.nodes()
            assert sorted(r1.graph.edges()) == sorted(r2.graph.edges())


# ----------------------------------------------------------------------
# Metadata-connectivity regression (the sampled-target bug)
class TestMultiComponentConnectivity:
    def multi_component_graph(self):
        # Component A: t1 - x - p1; component B: t2 - y - p2.  The old code
        # sampled ONE other-side target; when it drew the wrong component's
        # node the metadata node was silently left bare.
        g = ReferenceGraph()
        for label, corpus, role in [
            ("t1", "first", "tuple"), ("t2", "first", "tuple"),
            ("p1", "second", "document"), ("p2", "second", "document"),
        ]:
            g.add_node(label, kind=NodeKind.METADATA, corpus=corpus, role=role)
        for label in ("x", "y"):
            g.add_node(label, kind=NodeKind.DATA)
        for u, v in [("t1", "x"), ("x", "p1"), ("t2", "y"), ("y", "p2")]:
            g.add_edge(u, v)
        return g.freeze()

    @pytest.mark.parametrize("engine", sorted(MSP_IMPLEMENTATIONS))
    def test_every_reachable_metadata_node_connected(self, engine):
        g = self.multi_component_graph()
        # Every seed must connect every metadata node: the guarantee no
        # longer depends on which target the rng happened to draw.
        for seed in range(20):
            result = MSP_IMPLEMENTATIONS[engine](
                g, ["t1", "t2"], ["p1", "p2"], beta=0.25, seed=seed
            )
            for label in ("t1", "t2", "p1", "p2"):
                assert result.graph.degree(label) >= 1, (engine, seed, label)

    @pytest.mark.parametrize("engine", sorted(MSP_IMPLEMENTATIONS))
    def test_both_sides_metadata_node_still_connected(self, engine):
        # Regression: a label promoted to corpus "both" sits in its own
        # other-side target list; the bulk connectivity BFS used to stop at
        # the level-0 self-target and keep the node bare.
        g = ReferenceGraph()
        g.add_node("t9", kind=NodeKind.METADATA, corpus="first", role="tuple")
        g.add_node("shared", kind=NodeKind.METADATA, corpus="first", role="tuple")
        g.add_node("shared", kind=NodeKind.METADATA, corpus="second", role="tuple")
        g.add_node("p1", kind=NodeKind.METADATA, corpus="second", role="document")
        g.add_node("d0", kind=NodeKind.DATA)
        g.add_node("d1", kind=NodeKind.DATA)
        g.add_edge("t9", "d0")
        g.add_edge("d0", "p1")
        g.add_edge("shared", "d1")
        g.add_edge("d1", "p1")
        g = g.freeze()
        assert g.node_info("shared").corpus == "both"
        for seed in range(10):
            result = MSP_IMPLEMENTATIONS[engine](
                g, ["t9", "shared"], ["p1", "shared"], beta=0.2, seed=seed
            )
            assert result.graph.degree("shared") >= 1, (engine, seed)

    @pytest.mark.parametrize("engine", sorted(MSP_IMPLEMENTATIONS))
    def test_truly_isolated_metadata_kept_bare(self, engine):
        g = ReferenceGraph.thaw(self.multi_component_graph())
        g.add_node("t_orphan", kind=NodeKind.METADATA, corpus="first", role="tuple")
        g = g.freeze()
        result = MSP_IMPLEMENTATIONS[engine](
            g, ["t1", "t2", "t_orphan"], ["p1", "p2"], beta=0.5, seed=3
        )
        assert result.graph.has_node("t_orphan")
        assert result.graph.degree("t_orphan") == 0


# ----------------------------------------------------------------------
# SSuM: one keep mask
class TestSsumLiveSelection:
    def test_phase1_merges_identical_groups(self):
        g = ReferenceGraph()
        g.add_node("m1", kind=NodeKind.METADATA)
        g.add_node("m2", kind=NodeKind.METADATA)
        for label in ("a", "b", "c", "d"):
            g.add_node(label, kind=NodeKind.DATA)
        for u in ("a", "b", "c"):
            g.add_edge(u, "m1")
            g.add_edge(u, "m2")
        g.add_edge("d", "m1")
        g = g.freeze()
        alive = np.ones(g.num_nodes(), dtype=bool)
        merged = _merge_identical_neighborhoods(g, alive)
        assert merged == 2  # b and c absorbed into a
        assert g.keep(alive).nodes() == ["m1", "m2", "a", "d"]  # d: another neighbourhood

    @settings(max_examples=40, deadline=None)
    @given(graph_spec=random_graph())
    def test_phase1_equals_merge_nodes_oracle(self, graph_spec):
        # A merge of identical neighbourhoods only deletes the absorbed node,
        # so the keep mask gives what the merge_nodes loop gives.
        graph, _first, _second = graph_spec
        alive = np.ones(graph.num_nodes(), dtype=bool)
        merged = _merge_identical_neighborhoods(graph, alive)
        oracle = ReferenceGraph.thaw(graph)
        assert merge_identical_neighborhoods_reference(oracle) == merged
        kept = graph.keep(alive)
        assert kept.nodes() == oracle.nodes()
        assert set(kept.edges()) == set(oracle.edges())

    @settings(max_examples=30, deadline=None)
    @given(graph_spec=random_graph())
    def test_phase1_leaves_no_identical_pair(self, graph_spec):
        # The documented invariant: after the pass, no two surviving data
        # nodes share their entire neighbourhood (the one-shot grouping
        # could leave such pairs when guards skipped stale members).
        graph, _first, _second = graph_spec
        alive = np.ones(graph.num_nodes(), dtype=bool)
        _merge_identical_neighborhoods(graph, alive)
        kept = graph.keep(alive)
        signatures = [tuple(kept.neighbors(label)) for label in kept.data_nodes()]
        assert len(signatures) == len(set(signatures))
        # And the pass is idempotent: a second run finds nothing to merge.
        assert _merge_identical_neighborhoods(graph, alive) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        graph_spec=random_graph(),
        ratio=st.sampled_from([0.2, 0.5, 0.8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_phase2_matches_recomputed_oracle(self, graph_spec, ratio, seed):
        graph, _first, _second = graph_spec
        result = ssum_compress(graph, target_ratio=ratio, seed=seed)

        # Oracle: phase 1 by merge_nodes, then a naive recompute-per-step
        # phase 2 — always drop the live lowest-degree data node (random
        # seeded rank breaking ties), never below the floor.
        oracle = ReferenceGraph.thaw(graph)
        merge_identical_neighborhoods_reference(oracle)
        rng = ensure_rng(seed)
        target_data = max(4, int(ratio * len(graph.data_nodes())))
        data = oracle.data_nodes()
        ranks = {label: int(r) for label, r in zip(data, rng.permutation(len(data)))}
        while len(oracle.data_nodes()) > target_data:
            label = min(oracle.data_nodes(), key=lambda v: (oracle.degree(v), ranks[v]))
            oracle.remove_node(label)

        assert result.graph.nodes() == oracle.nodes()
        assert set(result.graph.edges()) == set(oracle.edges())

    def test_live_degree_drop_order(self):
        # Hub h starts with the HIGHEST degree; leaves l0..l3 have degree 1.
        # Removing the leaves drains h's live degree to 0, so h must be
        # dropped before the well-connected clique nodes — the stale
        # one-shot degree sort would have dropped a clique node instead.
        g = ReferenceGraph()
        g.add_node("m1", kind=NodeKind.METADATA)
        for label in ("h", "l0", "l1", "l2", "l3", "c0", "c1", "c2", "c3"):
            g.add_node(label, kind=NodeKind.DATA)
        for leaf in ("l0", "l1", "l2", "l3"):
            g.add_edge("h", leaf)
        clique = ("c0", "c1", "c2", "c3")
        for i, u in enumerate(clique):
            g.add_edge(u, "m1")
            for v in clique[i + 1:]:
                g.add_edge(u, v)
        result = ssum_compress(g.freeze(), target_ratio=0.45, seed=0)  # keep 4 of 9
        survivors = set(result.graph.data_nodes())
        assert survivors == set(clique)

    def test_heap_consistency_many_seeds(self):
        g = example_graph()
        for seed in range(10):
            result = ssum_compress(g, target_ratio=0.5, seed=seed)
            for label in ("t1", "t2", "p1", "p2"):
                assert result.graph.has_node(label)


# ----------------------------------------------------------------------
# Random baselines: draw orders that follow ids, never a set's hash order
class TestRandomBaselinesDrawOrder:
    def test_random_node_draws_over_data_nodes_in_source_order(self):
        graph = example_graph()
        data = np.flatnonzero(~graph.metadata_mask())
        drawn = ensure_rng(8).choice(data.size, size=round(0.5 * data.size), replace=False)
        keep = set(graph.metadata_nodes()) | {graph.labels[i] for i in data[drawn]}
        result = random_node_compress(graph, keep_ratio=0.5, seed=8)
        assert result.graph.nodes() == [label for label in graph.labels if label in keep]
        assert set(result.graph.edges()) == {
            (u, v) for u, v in graph.edges() if u in keep and v in keep
        }

    def test_random_edge_draws_over_edges_in_lo_hi_order(self):
        graph = example_graph()
        lo, hi = graph.edge_ids()
        pairs = list(zip(lo.tolist(), hi.tolist()))
        assert pairs == sorted(pairs) and all(a < b for a, b in pairs)
        drawn = ensure_rng(9).choice(len(pairs), size=round(0.5 * len(pairs)), replace=False)
        chosen = [pairs[i] for i in drawn]
        keep = set(graph.metadata_nodes()) | {graph.labels[i] for pair in chosen for i in pair}
        result = random_edge_compress(graph, keep_ratio=0.5, seed=9)
        assert result.graph.nodes() == [label for label in graph.labels if label in keep]
        assert set(result.graph.edges()) == {
            tuple(sorted((graph.labels[a], graph.labels[b]))) for a, b in chosen
        }

    def test_random_edge_drops_isolated_data_nodes_only(self):
        g = ReferenceGraph.thaw(example_graph())
        g.add_node("lonely", kind=NodeKind.DATA)
        g.add_node("t_orphan", kind=NodeKind.METADATA, corpus="first", role="tuple")
        graph = g.freeze()
        result = random_edge_compress(graph, keep_ratio=1.0, seed=0)
        assert set(result.graph.edges()) == set(graph.edges())
        assert result.graph.nodes() == [label for label in graph.labels if label != "lonely"]


# ----------------------------------------------------------------------
# End-to-end pipeline identity
class TestPipelineCompressionEngines:
    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_scenario(
            "imdb_wt",
            size=ScenarioSize(n_entities=12, n_queries=16, n_distractors=6),
            seed=5,
        )

    def run(self, scenario, oracle=False, method="msp"):
        config = TDMatchConfig.for_text_to_data()
        config.walks.num_walks = 4
        config.walks.walk_length = 8
        config.word2vec.vector_size = 24
        config.word2vec.epochs = 1
        config.compression = CompressionConfig(enabled=True, method=method, ratio=0.5)
        pipeline = TDMatch(config, seed=13)
        with pytest.MonkeyPatch.context() as patch:
            if oracle:
                patch.setattr(pipeline_module, "msp_compress", _msp_oracle)
                patch.setattr(pipeline_module, "ssp_compress", _ssp_oracle)
            pipeline.fit(scenario.first, scenario.second)
        return pipeline

    @pytest.mark.parametrize("method", ["msp", "ssp"])
    def test_seeded_match_identity_across_engines(self, scenario, method):
        reference = self.run(scenario, oracle=True, method=method)
        bulk = self.run(scenario, method=method)
        assert reference.graph.nodes() == bulk.graph.nodes()
        assert sorted(reference.graph.edges()) == sorted(bulk.graph.edges())
        assert reference.match(k=8).as_id_lists() == bulk.match(k=8).as_id_lists()

    def test_compression_stage_still_replaces_graph(self, scenario):
        pipeline = self.run(scenario)
        assert pipeline.state.compression is not None
        assert pipeline.graph is pipeline.state.compression.graph


class TestCliCompressionEngineFlag:
    ARGS = [
        "run", "--scenario", "imdb_wt", "--size", "tiny", "--k", "5",
        "--num-walks", "4", "--walk-length", "8", "--vector-size", "32",
        "--epochs", "1", "--compression", "msp",
    ]

    def test_non_engine_method_runs(self, capsys):
        args = [a for a in self.ARGS]
        args[args.index("msp")] = "ssum"
        assert cli.main(args) == 0
        assert "compression: ssum" in capsys.readouterr().out
