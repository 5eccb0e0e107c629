"""Tests for the vectorised walk engine.

The contract under test: the CSR engine implements the *same* walk
semantics as the step-at-a-time oracle of ``tests/oracles/walks.py`` —
identical start-node multiset, uniform neighbour choice, early stop on
isolated nodes — with seeded determinism.  In an undirected graph a walk
can only stop at its start node (any entered node has at least the
incoming edge back), so walk lengths are a deterministic function of the
start node and the engine must agree with the oracle on them exactly, not
just statistically.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline as pipeline_module
from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.graph.walk_engine import CSRWalkEngine, make_walk_engine
from repro.graph.walks import RandomWalkConfig
from tests.oracles.graph import ReferenceGraph
from tests.oracles.walks import (
    PythonWalkEngine,
    csr_label_walks,
    iter_walks_python,
    label_walks,
)

#: The walk generators under test, in label form: the oracle ("python") and
#: the library's CSR engine.  The oracle is held to the same determinism
#: contract because the seeded pipeline tests that swap it in rely on it.
GENERATORS = {"python": iter_walks_python, "csr": csr_label_walks}


def walks_of(engine_name, graph, config, seed):
    return list(GENERATORS[engine_name](graph, config, seed=seed))


def build_graph(num_nodes: int, edges, isolated=()):
    graph = ReferenceGraph()
    for i in range(num_nodes):
        graph.add_node(f"n{i}")
    for label in isolated:
        graph.add_node(label)
    for u, v in edges:
        graph.add_edge(f"n{u}", f"n{v}")
    return graph.freeze()


def steps_follow_edges(graph, walks) -> bool:
    edges = set(graph.edges())
    return all(
        (min(u, v), max(u, v)) in edges for walk in walks for u, v in zip(walk, walk[1:])
    )


@pytest.fixture()
def diamond_graph():
    """A 4-cycle with a pendant node and two isolated nodes."""
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)], isolated=["iso1", "iso2"])
    return g


# ----------------------------------------------------------------------
# Parity with the step-at-a-time oracle
class TestEngineParity:
    def test_start_node_multiset_identical(self, diamond_graph):
        config = RandomWalkConfig(num_walks=7, walk_length=5)
        python_walks = label_walks(PythonWalkEngine(diamond_graph, config), seed=3)
        csr_walks = label_walks(CSRWalkEngine(diamond_graph, config), seed=3)
        assert Counter(w[0] for w in python_walks) == Counter(w[0] for w in csr_walks)
        assert len(python_walks) == len(csr_walks) == 7 * diamond_graph.num_nodes()

    def test_walk_lengths_identical_per_start(self, diamond_graph):
        config = RandomWalkConfig(num_walks=4, walk_length=6)
        python_walks = label_walks(PythonWalkEngine(diamond_graph, config), seed=1)
        csr_walks = label_walks(CSRWalkEngine(diamond_graph, config), seed=1)

        def lengths_by_start(walks):
            return {
                start: sorted(len(w) for w in walks if w[0] == start)
                for start in diamond_graph.nodes()
            }

        assert lengths_by_start(python_walks) == lengths_by_start(csr_walks)

    def test_isolated_nodes_stop_immediately_in_both(self, diamond_graph):
        config = RandomWalkConfig(num_walks=3, walk_length=8)
        for engine in (
            PythonWalkEngine(diamond_graph, config),
            CSRWalkEngine(diamond_graph, config),
        ):
            walks = label_walks(engine, seed=5)
            for walk in walks:
                if walk[0] in ("iso1", "iso2"):
                    assert walk == [walk[0]]
                else:
                    assert len(walk) == config.walk_length

    def test_csr_steps_follow_edges(self, diamond_graph):
        config = RandomWalkConfig(num_walks=5, walk_length=10)
        walks = label_walks(CSRWalkEngine(diamond_graph, config), seed=2)
        assert steps_follow_edges(diamond_graph, walks)

    def test_csr_neighbor_choice_covers_all_neighbors(self):
        # Star graph: with enough walks from the hub every leaf must appear
        # as a first step (uniform choice cannot starve a neighbour).
        g = build_graph(6, [(0, i) for i in range(1, 6)])
        config = RandomWalkConfig(num_walks=200, walk_length=2, start_nodes=["n0"])
        seen = {w[1] for w in label_walks(CSRWalkEngine(g, config), seed=9)}
        assert seen == {f"n{i}" for i in range(1, 6)}

    def test_batched_generation_preserves_semantics(self, diamond_graph):
        # Batching regroups the rng draws (so the corpora differ walk by
        # walk) but the walk semantics must be invariant to batch size.
        config = RandomWalkConfig(num_walks=6, walk_length=5)
        small_walks = label_walks(CSRWalkEngine(diamond_graph, config, batch_size=2), seed=4)
        large_walks = label_walks(
            CSRWalkEngine(diamond_graph, config, batch_size=10_000), seed=4
        )
        assert len(small_walks) == len(large_walks)
        assert Counter(w[0] for w in small_walks) == Counter(w[0] for w in large_walks)
        assert Counter((w[0], len(w)) for w in small_walks) == Counter(
            (w[0], len(w)) for w in large_walks
        )
        assert steps_follow_edges(diamond_graph, small_walks)

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=1, max_value=10),
        edge_picks=st.sets(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20
        ),
        num_isolated=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_parity_on_random_graphs(
        self, num_nodes, edge_picks, num_isolated, seed
    ):
        edges = [
            (u % num_nodes, v % num_nodes)
            for u, v in edge_picks
            if u % num_nodes != v % num_nodes
        ]
        graph = build_graph(
            num_nodes, edges, isolated=[f"iso{i}" for i in range(num_isolated)]
        )
        config = RandomWalkConfig(num_walks=3, walk_length=4)
        python_walks = label_walks(PythonWalkEngine(graph, config), seed=seed)
        csr_walks = label_walks(CSRWalkEngine(graph, config), seed=seed)
        # Identical start-node statistics...
        assert Counter(w[0] for w in python_walks) == Counter(w[0] for w in csr_walks)
        # ... and identical walk-length statistics per start node.
        python_lengths = Counter((w[0], len(w)) for w in python_walks)
        csr_lengths = Counter((w[0], len(w)) for w in csr_walks)
        assert python_lengths == csr_lengths
        # CSR walks only traverse real edges.
        assert steps_follow_edges(graph, csr_walks)


# ----------------------------------------------------------------------
# Determinism
class TestDeterminism:
    @pytest.mark.parametrize("engine_name", ["python", "csr"])
    def test_same_seed_same_corpus(self, diamond_graph, engine_name):
        config = RandomWalkConfig(num_walks=4, walk_length=6)
        first = walks_of(engine_name, diamond_graph, config, seed=42)
        second = walks_of(engine_name, diamond_graph, config, seed=42)
        assert first == second

    @pytest.mark.parametrize("engine_name", ["python", "csr"])
    def test_different_seeds_differ(self, diamond_graph, engine_name):
        config = RandomWalkConfig(num_walks=8, walk_length=10)
        assert walks_of(engine_name, diamond_graph, config, seed=1) != walks_of(
            engine_name, diamond_graph, config, seed=2
        )

    def test_generator_seed_accepted(self, diamond_graph):
        config = RandomWalkConfig(num_walks=2, walk_length=4)
        rng = np.random.default_rng(7)
        walks = list(CSRWalkEngine(diamond_graph, config).iter_walks(seed=rng))
        assert len(walks) == 2 * diamond_graph.num_nodes()

    @pytest.mark.parametrize("engine_name", ["python", "csr"])
    def test_determinism_across_processes(self, engine_name):
        # Same seed must give the same corpus under different hash seeds:
        # neighbour order must never come from raw set iteration order.
        import os
        import subprocess
        import sys

        generator = GENERATORS[engine_name]
        snippet = (
            "from repro.graph.walks import RandomWalkConfig\n"
            "from tests.oracles.graph import ReferenceGraph\n"
            f"from {generator.__module__} import {generator.__name__} as walks\n"
            "g = ReferenceGraph()\n"
            "for i in range(8): g.add_node(f'node{i}')\n"
            "for i in range(8):\n"
            "    for j in range(i + 1, 8):\n"
            "        if (i + j) % 3: g.add_edge(f'node{i}', f'node{j}')\n"
            "cfg = RandomWalkConfig(num_walks=2, walk_length=5)\n"
            "print(list(walks(g.freeze(), cfg, seed=7)))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            repo_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(repo_dir, "src"), repo_dir, env.get("PYTHONPATH", "")]
            )
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Engine construction
class TestEngineSelection:
    def test_invalid_batch_size_not_swallowed_by_fallback(self, diamond_graph):
        with pytest.raises(ValueError, match="batch_size"):
            make_walk_engine(diamond_graph, RandomWalkConfig(), batch_size=0)

    def test_iter_walks_dispatches_on_config(self, diamond_graph):
        config = RandomWalkConfig(num_walks=2, walk_length=3)
        walks = list(make_walk_engine(diamond_graph, config).iter_walks(seed=1))
        assert len(walks) == 2 * diamond_graph.num_nodes()
        # One int32 node-id array per walk, never a label sentence.
        assert all(w.dtype == np.int32 and 1 <= w.size <= 3 for w in walks)

    def test_invalid_batch_size_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            CSRWalkEngine(diamond_graph, RandomWalkConfig(), batch_size=0)


# ----------------------------------------------------------------------
# Missing start nodes warn instead of silently skipping
class TestStartNodeWarnings:
    @pytest.mark.parametrize("engine_name", ["python", "csr"])
    def test_missing_start_nodes_warn(self, diamond_graph, engine_name):
        config = RandomWalkConfig(
            num_walks=1,
            walk_length=3,
            start_nodes=["n0", "ghost", "phantom"],
        )
        with pytest.warns(RuntimeWarning, match="2 start node"):
            walks = walks_of(engine_name, diamond_graph, config, seed=1)
        # The known start node is still walked.
        assert len(walks) == 1
        assert walks[0][0] == "n0"

    def test_no_warning_when_all_starts_known(self, diamond_graph, recwarn):
        config = RandomWalkConfig(num_walks=1, walk_length=3, start_nodes=["n0", "n1"])
        csr_label_walks(diamond_graph, config, seed=1)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------------------
# Pipeline integration
def build_review_world():
    from repro.corpus.documents import TextCorpus
    from repro.corpus.table import Column, Table

    table = Table("movies", [Column("title"), Column("director"), Column("genre")])
    rows = [
        ("m1", "Silent Storm", "Nora Bergman", "thriller"),
        ("m2", "Golden Empire", "Oscar Leone", "drama"),
        ("m3", "Paper Moon Hour", "Helen Kaur", "comedy"),
    ]
    for row_id, title, director, genre in rows:
        table.add_record(row_id, title=title, director=director, genre=genre)
    reviews = TextCorpus(name="reviews")
    reviews.add_text("r1", "Silent Storm is a tense thriller directed by Bergman")
    reviews.add_text("r2", "Golden Empire sees Leone direct a sweeping drama")
    reviews.add_text("r3", "Paper Moon Hour is a gentle comedy from Kaur")
    gold = {"r1": {"m1"}, "r2": {"m2"}, "r3": {"m3"}}
    return reviews, table, gold


def _spy_iter_walks(monkeypatch, engine_class):
    """Record the ``name`` of each ``engine_class`` whose walks a fit draws."""
    engines = []
    iter_walks = engine_class.iter_walks

    def spy(engine, seed=None):
        engines.append(engine.name)
        return iter_walks(engine, seed=seed)

    monkeypatch.setattr(engine_class, "iter_walks", spy)
    return engines


class TestPipelineIntegration:
    def test_fit_records_engine_and_timings(self, monkeypatch):
        reviews, table, _gold = build_review_world()
        engines = _spy_iter_walks(monkeypatch, CSRWalkEngine)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=11)
        pipeline.fit(reviews, table)
        assert engines == ["csr"]
        timings = pipeline.timings.as_dict()
        assert "walks" in timings and "word2vec" in timings
        assert timings["walks"] >= 0.0

    def test_python_engine_pipeline_matches_quality(self, monkeypatch):
        # The oracle's walks, swapped into the pipeline, match as well.
        reviews, table, gold = build_review_world()
        monkeypatch.setattr(
            pipeline_module,
            "make_walk_engine",
            lambda graph, config, parallel=None: PythonWalkEngine(graph, config),
        )
        engines = _spy_iter_walks(monkeypatch, PythonWalkEngine)
        pipeline = TDMatch(TDMatchConfig.fast(), seed=11)
        pipeline.fit(reviews, table)
        assert engines == ["python"]
        rankings = pipeline.match(k=2)
        hits = sum(1 for doc, gold_ids in gold.items() if rankings[doc].ids(2)[0] in gold_ids)
        assert hits >= 2
