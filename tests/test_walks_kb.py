"""Tests for random-walk generation and the knowledge-base substrate."""

import numpy as np
import pytest

from repro.graph.walk_engine import CSRWalkEngine
from repro.graph.walks import RandomWalkConfig
from repro.kb.conceptnet import build_concept_kb
from repro.kb.dbpedia import build_entity_kb
from repro.kb.knowledge_base import InMemoryKnowledgeBase, Triple
from tests.oracles.graph import graph_of
from tests.oracles.walks import csr_label_walks


def single_walk(graph, start, length, seed):
    """One walk of ``length`` nodes from ``start``."""
    config = RandomWalkConfig(num_walks=1, walk_length=length, start_nodes=[start])
    return csr_label_walks(graph, config, seed=seed)[0]


@pytest.fixture()
def line_graph():
    return graph_of("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


class TestRandomWalks:
    def test_walk_length_respected(self, line_graph):
        walk = single_walk(line_graph, "a", 5, seed=1)
        assert len(walk) == 5
        assert walk[0] == "a"

    def test_walk_steps_follow_edges(self, line_graph):
        walk = single_walk(line_graph, "a", 10, seed=2)
        for u, v in zip(walk, walk[1:]):
            assert v in line_graph.neighbors(u)

    def test_walk_stops_at_isolated_node(self):
        walk = single_walk(graph_of(["solo"]), "solo", 10, seed=3)
        assert walk == ["solo"]

    def test_number_of_walks(self, line_graph):
        config = RandomWalkConfig(num_walks=3, walk_length=4)
        walks = csr_label_walks(line_graph, config, seed=1)
        assert len(walks) == 3 * line_graph.num_nodes()

    def test_start_nodes_restriction(self, line_graph):
        config = RandomWalkConfig(num_walks=2, walk_length=4, start_nodes=["a", "b"])
        walks = csr_label_walks(line_graph, config, seed=1)
        assert len(walks) == 4
        assert {w[0] for w in walks} == {"a", "b"}

    def test_unknown_start_nodes_skipped(self, line_graph):
        config = RandomWalkConfig(num_walks=1, walk_length=4, start_nodes=["a", "ghost"])
        walks = csr_label_walks(line_graph, config, seed=1)
        assert len(walks) == 1

    def test_walks_deterministic_given_seed(self, line_graph):
        config = RandomWalkConfig(num_walks=2, walk_length=6)
        assert csr_label_walks(line_graph, config, seed=5) == csr_label_walks(line_graph, config, seed=5)

    def test_iter_walks_is_lazy_equivalent(self, line_graph):
        # The engine yields one int32 node-id array per walk, lazily; decoded,
        # they are the label corpus.
        config = RandomWalkConfig(num_walks=1, walk_length=3)
        engine = CSRWalkEngine(line_graph, config)
        walks = engine.iter_walks(seed=2)
        first = next(walks)
        assert first.dtype == np.int32
        decoded = [[line_graph.labels[i] for i in w] for w in [first, *walks]]
        assert decoded == csr_label_walks(line_graph, config, seed=2)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(num_walks=0)
        with pytest.raises(ValueError):
            RandomWalkConfig(walk_length=0)


class TestInMemoryKnowledgeBase:
    def test_add_and_related(self):
        kb = InMemoryKnowledgeBase()
        kb.add_relation("Tarantino", "style", "Comedy")
        assert kb.related("tarantino") == ["comedy"]
        assert kb.related("comedy") == ["tarantino"]

    def test_lookup_is_case_insensitive(self):
        kb = InMemoryKnowledgeBase()
        kb.add_relation("Willis", "starringOf", "Pulp Fiction")
        assert "pulp fiction" in kb.related("WILLIS")

    def test_self_relations_ignored(self):
        kb = InMemoryKnowledgeBase()
        kb.add_relation("a", "rel", "A")
        assert len(kb) == 0

    def test_unknown_term_returns_empty(self):
        assert InMemoryKnowledgeBase().related("ghost") == []

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            Triple(subject="", predicate="p", object="o")

    def test_merge(self):
        kb1 = InMemoryKnowledgeBase(name="a")
        kb1.add_relation("x", "r", "y")
        kb2 = InMemoryKnowledgeBase(name="b")
        kb2.add_relation("y", "r", "z")
        merged = kb1.merge(kb2)
        assert len(merged) == 2
        assert set(merged.related("y")) == {"x", "z"}

    def test_terms(self):
        kb = InMemoryKnowledgeBase()
        kb.add_relation("a", "r", "b")
        assert kb.terms() == ["a", "b"]


class TestSyntheticKbBuilders:
    def test_concept_kb_connects_cluster_members(self):
        kb = build_concept_kb({"management": ["management", "planning", "organisation"]})
        assert "management" in kb.related("planning")

    def test_concept_kb_noise_relations(self):
        kb = build_concept_kb(
            {"x": ["a", "b"]}, noise_terms=["n1", "n2", "n3"], noise_relations=5, seed=1
        )
        assert len(kb) >= 3

    def test_entity_kb_contains_useful_relations(self):
        kb = build_entity_kb([("tarantino", "directorOf", "pulp fiction")])
        assert "pulp fiction" in kb.related("tarantino")

    def test_entity_kb_noise_fanout(self):
        kb = build_entity_kb(
            [("a", "r", "b")],
            popular_entities=["a"],
            noise_per_entity=10,
            noise_vocabulary=["x", "y", "z"],
            seed=1,
        )
        assert len(kb.related("a")) >= 10
