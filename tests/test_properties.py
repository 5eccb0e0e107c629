"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.embeddings.similarity import cosine_matrix, cosine_similarity
from repro.embeddings.vocab import Vocabulary
from repro.eval.metrics import (
    average_precision_at_k,
    has_positive_at_k,
    reciprocal_rank,
)
from repro.eval.taxonomy_metrics import node_score
from repro.graph.expansion import expand_graph
from repro.graph.graph import NodeKind
from repro.graph.merging import freedman_diaconis_width
from repro.graph.walks import RandomWalkConfig
from repro.kb.knowledge_base import InMemoryKnowledgeBase
from repro.retrieval import DenseTopK
from repro.text.ngrams import generate_ngrams
from repro.text.preprocess import MIN_TOKEN_LENGTH, PreprocessConfig, Preprocessor
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOP_WORDS
from repro.text.tokenizer import tokenize
from repro.utils.rng import ensure_rng
from tests.oracles.graph import ReferenceGraph
from tests.oracles.walks import csr_label_walks, single_walk

# ----------------------------------------------------------------------
# Strategies
labels = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
token_lists = st.lists(labels, min_size=0, max_size=12)
words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15)
short_and_stop_words = ["The", "a", "I", "x", "of", "an", "ox", "it's", "4", "1,250", "8.6", "--"]


def random_graph_strategy():
    """A random small graph described as (node labels, edge index pairs)."""
    return st.tuples(
        st.lists(labels, min_size=2, max_size=12, unique=True),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
    )


def build_graph(nodes, edge_indices):
    g = ReferenceGraph()
    for i, node in enumerate(nodes):
        kind = NodeKind.METADATA if i % 3 == 0 else NodeKind.DATA
        g.add_node(node, kind=kind)
    for i, j in edge_indices:
        if i < len(nodes) and j < len(nodes) and i != j:
            g.add_edge(nodes[i], nodes[j])
    return g


# ----------------------------------------------------------------------
class TestTextProperties:
    @given(st.text(max_size=200))
    @settings(max_examples=60)
    def test_tokenize_always_lowercase_and_nonempty_tokens(self, text):
        tokens = tokenize(text)
        assert all(t == t.lower() for t in tokens)
        assert all(t for t in tokens)

    @given(st.lists(st.sampled_from(short_and_stop_words) | words, max_size=12).map(" ".join))
    @settings(max_examples=60)
    def test_tokens_drop_stop_words_and_short_words_but_keep_numbers(self, text):
        kept = [t for t in tokenize(text) if t[0].isdigit() or len(t) >= MIN_TOKEN_LENGTH]
        expected = [t for t in kept if t not in STOP_WORDS]
        assert Preprocessor(PreprocessConfig(apply_stemming=False)).tokens(text) == expected

    @given(words)
    @settings(max_examples=80)
    def test_stemmer_never_lengthens_and_is_idempotent(self, word):
        stemmer = PorterStemmer()
        stemmed = stemmer.stem(word)
        assert len(stemmed) <= len(word)
        assert stemmer.stem(stemmed) == stemmer.stem(stemmer.stem(stemmed))

    @given(token_lists, st.integers(1, 4))
    @settings(max_examples=60)
    def test_ngram_count_formula(self, tokens, max_n):
        grams = generate_ngrams(tokens, max_n=max_n)
        expected = sum(max(len(tokens) - n + 1, 0) for n in range(1, max_n + 1))
        assert len(grams) == expected
        # every n-gram is a contiguous slice of the input
        joined = " ".join(tokens)
        assert all(g in joined for g in grams)


class TestGraphProperties:
    @given(random_graph_strategy())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_edge_count_matches_iteration(self, data):
        nodes, edges = data
        g = build_graph(nodes, edges).freeze()
        assert len(list(g.edges())) == g.num_edges()
        # degree sum equals twice the edge count (handshake lemma)
        assert sum(g.degree(n) for n in g.nodes()) == 2 * g.num_edges()

    @given(random_graph_strategy())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_shortest_path_agrees_with_networkx(self, data):
        import networkx as nx

        nodes, edges = data
        g = build_graph(nodes, edges)
        nxg = g.to_networkx()
        source, target = nodes[0], nodes[-1]
        path = g.shortest_path(source, target)
        if path is None:
            assert not nx.has_path(nxg, source, target)
        else:
            assert len(path) - 1 == nx.shortest_path_length(nxg, source, target)
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)

    @given(random_graph_strategy(), st.integers(0, 2**16))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_random_walks_follow_edges(self, data, seed):
        # Both the CSR engine and the step-at-a-time oracle.
        nodes, edges = data
        g = build_graph(nodes, edges)
        config = RandomWalkConfig(num_walks=1, walk_length=8, start_nodes=[nodes[0]])
        for walk in (
            csr_label_walks(g.freeze(), config, seed=seed)[0],
            single_walk(g.freeze(), nodes[0], 8, ensure_rng(seed)),
        ):
            assert walk[0] == nodes[0]
            assert len(walk) <= 8
            for u, v in zip(walk, walk[1:]):
                assert g.has_edge(u, v)

    @given(random_graph_strategy())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_keep_induces_the_subgraph(self, data):
        nodes, edges = data
        g = build_graph(nodes, edges)
        kept = set(nodes[: len(nodes) // 2 + 1])
        sub = g.freeze().keep(np.array([label in kept for label in g.nodes()]))
        assert sub.nodes() == [label for label in g.nodes() if label in kept]
        assert set(sub.edges()) == {(u, v) for u, v in g.edges() if u in kept and v in kept}

    @given(random_graph_strategy())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_sink_removal_is_one_oracle_pass(self, data):
        # Expansion with nothing to add still cleans: one pass removes every
        # data node of degree <= 1, as the oracle's remove_sink_nodes does.
        nodes, edges = data
        g = build_graph(nodes, edges)
        result = expand_graph(g.freeze(), InMemoryKnowledgeBase())
        assert result.sink_nodes_removed == g.remove_sink_nodes(protect_metadata=True)
        assert result.graph.nodes() == g.nodes()
        assert set(result.graph.edges()) == set(g.edges())

    @given(random_graph_strategy())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_remove_sink_nodes_fixpoint_leaves_no_low_degree_data_nodes(self, data):
        nodes, edges = data
        g = build_graph(nodes, edges)
        # A single pass can expose new sinks; iterating to a fixpoint must
        # leave every surviving data node with degree >= 2.
        while g.remove_sink_nodes(protect_metadata=True) > 0:
            pass
        for node in g.data_nodes():
            assert g.degree(node) >= 2


class TestMetricProperties:
    ranked = st.lists(labels, min_size=1, max_size=10, unique=True)
    gold = st.sets(labels, min_size=1, max_size=5)

    @given(ranked, gold, st.integers(1, 10))
    @settings(max_examples=80)
    def test_metrics_bounded_in_unit_interval(self, ranked_ids, relevant, k):
        for value in (
            reciprocal_rank(ranked_ids, relevant),
            average_precision_at_k(ranked_ids, relevant, k),
            has_positive_at_k(ranked_ids, relevant, k),
        ):
            assert 0.0 <= value <= 1.0

    @given(ranked, gold)
    @settings(max_examples=60)
    def test_map_monotone_in_k(self, ranked_ids, relevant):
        # HasPositive@k never decreases as k grows.
        values = [has_positive_at_k(ranked_ids, relevant, k) for k in range(1, len(ranked_ids) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.lists(labels, min_size=3, max_size=8), st.lists(labels, min_size=3, max_size=8))
    @settings(max_examples=60)
    def test_node_score_symmetric_and_bounded(self, path1, path2):
        score = node_score(path1, path2)
        assert 0.0 <= score <= 1.0
        assert score == node_score(path2, path1)

    @given(st.lists(labels, min_size=3, max_size=8, unique=True))
    @settings(max_examples=40)
    def test_node_score_reflexive_for_unique_label_paths(self, path):
        assert node_score(path, path) == 1.0


class TestNumericProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_freedman_diaconis_width_positive(self, values):
        assert freedman_diaconis_width(values) > 0

    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(2, 6),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_cosine_matrix_values_bounded(self, n_queries, n_candidates, dim, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(n_queries, dim))
        c = rng.normal(size=(n_candidates, dim))
        scores = cosine_matrix(q, c)
        assert scores.shape == (n_queries, n_candidates)
        assert np.all(scores <= 1.0 + 1e-9) and np.all(scores >= -1.0 - 1e-9)

    @given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_top_k_sorted_descending(self, n_candidates, k, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(3, n_candidates))
        ids = [f"c{i}" for i in range(n_candidates)]
        rankings = DenseTopK().retrieve_from_scores(scores, k).to_rankings(
            ["q0", "q1", "q2"], ids
        )
        for ranking in rankings:
            row = ranking.candidates
            values = [s for _c, s in row]
            assert values == sorted(values, reverse=True)
            assert len(row) == min(k, n_candidates)

    @given(st.integers(2, 5), st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_cosine_similarity_symmetry(self, dim, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=dim), rng.normal(size=dim)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)


class TestVocabularyProperties:
    @given(st.lists(token_lists, min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_vocabulary_counts_match_corpus(self, sentences):
        vocab = Vocabulary.from_sentences(sentences)
        total_tokens = sum(len(s) for s in sentences)
        assert sum(vocab.count_of(t) for t in vocab.tokens) == total_tokens

    @given(st.lists(token_lists, min_size=1, max_size=20).filter(lambda s: any(s)))
    @settings(max_examples=40)
    def test_negative_distribution_is_probability(self, sentences):
        vocab = Vocabulary.from_sentences(sentences)
        if len(vocab) == 0:
            return
        dist = vocab.negative_sampling_distribution()
        assert np.all(dist >= 0)
        assert dist.sum() == np.float64(1.0) or abs(dist.sum() - 1.0) < 1e-9
