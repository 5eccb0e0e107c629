"""Tests for the embedding substrate: vocab, Word2Vec, Doc2Vec, pooling, similarity."""

import numpy as np
import pytest

from repro.embeddings.doc2vec import Doc2Vec, Doc2VecConfig
from repro.embeddings.pretrained import build_synthetic_pretrained
from repro.embeddings.sentence import SentenceEncoder, idf_weights, mean_pool
from repro.embeddings.similarity import cosine_matrix, cosine_similarity, normalize_rows
from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.retrieval import DenseTopK


def top_k(scores, k, candidate_ids):
    """The top-k candidate ids of each row, decoded by ``to_rankings``."""
    query_ids = [f"q{i}" for i in range(scores.shape[0])]
    rankings = DenseTopK(dtype=None).retrieve_from_scores(scores, k).to_rankings(
        query_ids, candidate_ids
    )
    return [rankings[qid].ids() for qid in query_ids]


class TestVocabulary:
    def test_from_sentences_counts(self):
        vocab = Vocabulary.from_sentences([["a", "b", "a"], ["b", "c"]])
        assert vocab.count_of("a") == 2
        assert vocab.count_of("b") == 2
        assert vocab.count_of("c") == 1

    def test_min_count_filters(self):
        vocab = Vocabulary.from_sentences([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab

    def test_ids_are_contiguous_and_deterministic(self):
        vocab = Vocabulary.from_sentences([["b", "a", "a"]])
        assert vocab.id_of("a") == 0  # higher count first
        assert vocab.id_of("b") == 1
        assert vocab.token_of(0) == "a"

    def test_encode_drops_oov(self):
        vocab = Vocabulary.from_sentences([["a", "b"]])
        assert vocab.encode(["a", "zzz", "b"]) == [vocab.id_of("a"), vocab.id_of("b")]

    def test_negative_sampling_distribution_sums_to_one(self):
        vocab = Vocabulary.from_sentences([["a", "a", "b", "c"]])
        dist = vocab.negative_sampling_distribution()
        assert dist.shape == (3,)
        assert dist.sum() == pytest.approx(1.0)
        assert dist[vocab.id_of("a")] > dist[vocab.id_of("c")]

    def test_subsample_probabilities_bounded(self):
        vocab = Vocabulary.from_sentences([["a"] * 100 + ["b"]])
        keep = vocab.subsample_keep_probabilities(1e-3)
        assert np.all(keep <= 1.0) and np.all(keep > 0)
        assert keep[vocab.id_of("a")] < keep[vocab.id_of("b")]

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)

    def test_empty_vocab_distribution_raises(self):
        with pytest.raises(ValueError):
            Vocabulary().negative_sampling_distribution()


def synthetic_cooccurrence_corpus(n_sentences: int = 300, seed: int = 0):
    """Sentences where tokens of the same group always co-occur."""
    rng = np.random.default_rng(seed)
    groups = [["apple", "banana", "cherry"], ["table", "chair", "sofa"], ["red", "green", "blue"]]
    sentences = []
    for _ in range(n_sentences):
        group = groups[int(rng.integers(0, len(groups)))]
        sentence = [str(w) for w in rng.choice(group, size=6, replace=True)]
        sentences.append(sentence)
    return sentences


class TestWord2Vec:
    @pytest.fixture(scope="class")
    def trained_sg(self):
        config = Word2VecConfig(vector_size=32, window=3, epochs=4, negative=4)
        return Word2Vec(config, seed=1).train(synthetic_cooccurrence_corpus())

    def test_vocabulary_learned(self, trained_sg):
        assert "apple" in trained_sg
        assert trained_sg.vector("apple") is not None

    def test_oov_returns_none(self, trained_sg):
        assert trained_sg.vector("zzz") is None

    def test_vector_dimension(self, trained_sg):
        assert trained_sg.vector("apple").shape == (32,)

    def test_cooccurring_tokens_are_closer_than_random(self, trained_sg):
        same = cosine_similarity(trained_sg.vector("apple"), trained_sg.vector("banana"))
        cross = cosine_similarity(trained_sg.vector("apple"), trained_sg.vector("chair"))
        assert same > cross

    def test_cbow_variant_learns_same_structure(self):
        config = Word2VecConfig(vector_size=32, window=3, epochs=4, sg=False)
        model = Word2Vec(config, seed=2).train(synthetic_cooccurrence_corpus())
        same = cosine_similarity(model.vector("table"), model.vector("sofa"))
        cross = cosine_similarity(model.vector("table"), model.vector("red"))
        assert same > cross

    def test_training_is_deterministic_given_seed(self):
        config = Word2VecConfig(vector_size=16, epochs=2)
        corpus = synthetic_cooccurrence_corpus(100)
        m1 = Word2Vec(config, seed=3).train(corpus)
        m2 = Word2Vec(config, seed=3).train(corpus)
        np.testing.assert_allclose(m1.vector("apple"), m2.vector("apple"))

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            Word2Vec(Word2VecConfig()).train([])

    def test_untrained_lookup_raises(self):
        with pytest.raises(RuntimeError):
            Word2Vec().vector("x")

    def test_min_count_filters_rare_tokens(self):
        corpus = [["common", "common", "other", "rare"]] + [["common", "other"]] * 4
        model = Word2Vec(Word2VecConfig(vector_size=8, epochs=1, min_count=3), seed=1).train(corpus)
        assert model.vector("rare") is None
        assert model.vector("common") is not None

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Word2VecConfig(vector_size=0)
        with pytest.raises(ValueError):
            Word2VecConfig(window=0)
        with pytest.raises(ValueError):
            Word2VecConfig(negative=0)

    def test_subsampling_still_trains(self):
        config = Word2VecConfig(vector_size=16, epochs=2, subsample=1e-2)
        model = Word2Vec(config, seed=4).train(synthetic_cooccurrence_corpus(100))
        assert model.vector("apple") is not None


class TestDoc2Vec:
    @pytest.fixture(scope="class")
    def trained(self):
        documents = {}
        rng = np.random.default_rng(0)
        for i in range(40):
            topic = ["apple", "banana", "cherry"] if i % 2 == 0 else ["table", "chair", "sofa"]
            documents[f"d{i}"] = [str(w) for w in rng.choice(topic, size=8)]
        config = Doc2VecConfig(vector_size=24, epochs=20)
        return Doc2Vec(config, seed=1).train(documents)

    def test_document_vectors_exist(self, trained):
        assert trained.document_vector("d0").shape == (24,)
        assert trained.document_vector("missing") is None

    def test_same_topic_docs_are_closer(self, trained):
        same = cosine_similarity(trained.document_vector("d0"), trained.document_vector("d2"))
        cross = cosine_similarity(trained.document_vector("d0"), trained.document_vector("d1"))
        assert same > cross

    def test_infer_vector_shape(self, trained):
        vec = trained.infer_vector(["apple", "banana"])
        assert vec.shape == (24,)

    def test_infer_vector_lands_near_topic(self, trained):
        vec = trained.infer_vector(["apple", "banana", "cherry", "apple"], epochs=30)
        fruit_doc = trained.document_vector("d0")
        furniture_doc = trained.document_vector("d1")
        assert cosine_similarity(vec, fruit_doc) > cosine_similarity(vec, furniture_doc)

    def test_empty_documents_raise(self):
        with pytest.raises(ValueError):
            Doc2Vec().train({})

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            Doc2Vec().document_vector("x")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Doc2VecConfig(vector_size=0)


class TestSentencePooling:
    def test_mean_pool_basic(self):
        table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        vec = mean_pool(["a", "b"], table.get)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_mean_pool_skips_unknown(self):
        table = {"a": np.array([2.0, 0.0])}
        vec = mean_pool(["a", "zzz"], table.get)
        np.testing.assert_allclose(vec, [2.0, 0.0])

    def test_mean_pool_all_unknown_returns_none(self):
        assert mean_pool(["x"], {}.get) is None

    def test_mean_pool_weights(self):
        table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        vec = mean_pool(["a", "b"], table.get, weights={"a": 3.0, "b": 1.0})
        np.testing.assert_allclose(vec, [0.75, 0.25])

    def test_sentence_encoder_sif_downweights_frequent(self):
        table = {"the": np.array([1.0, 0.0]), "rare": np.array([0.0, 1.0])}
        encoder = SentenceEncoder(lookup=table.get)
        encoder.fit_frequencies([["the"] * 99 + ["rare"]])
        vec = encoder.encode(["the", "rare"])
        assert vec[1] > vec[0]

    def test_encode_all_handles_unknown_rows(self):
        table = {"a": np.array([1.0, 1.0])}
        encoder = SentenceEncoder(lookup=table.get, use_sif=False)
        matrix = encoder.encode_all([["a"], ["zzz"]])
        assert matrix.shape == (2, 2)
        np.testing.assert_allclose(matrix[1], [0.0, 0.0])

    def test_encode_all_without_any_known_token_raises(self):
        encoder = SentenceEncoder(lookup={}.get)
        with pytest.raises(ValueError):
            encoder.encode_all([["x"]])

    def test_encode_all_honours_dim_for_all_oov_slice(self):
        """Regression: an explicit dim pins the width when every row is OOV."""
        encoder = SentenceEncoder(lookup={}.get)
        matrix = encoder.encode_all([["x"], ["y"]], dim=5)
        assert matrix.shape == (2, 5)
        np.testing.assert_allclose(matrix, 0.0)

    def test_encode_all_dim_matching_vectors_ok(self):
        table = {"a": np.array([1.0, 1.0])}
        encoder = SentenceEncoder(lookup=table.get, use_sif=False)
        matrix = encoder.encode_all([["a"], ["zzz"]], dim=2)
        assert matrix.shape == (2, 2)

    def test_encode_all_dim_mismatch_raises(self):
        """Regression: dim used to be silently overwritten by the vectors."""
        table = {"a": np.array([1.0, 1.0])}
        encoder = SentenceEncoder(lookup=table.get, use_sif=False)
        with pytest.raises(ValueError):
            encoder.encode_all([["a"]], dim=3)

    def test_idf_weights(self):
        weights = idf_weights([["a", "b"], ["a"]])
        assert weights["b"] > weights["a"]


class TestSimilarity:
    def test_cosine_similarity_known_values(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_cosine_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_normalize_rows_keeps_zero_rows(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        normalised = normalize_rows(matrix)
        assert np.linalg.norm(normalised[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(normalised[1], [0.0, 0.0])

    def test_cosine_matrix_shape_and_values(self):
        q = np.array([[1.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = cosine_matrix(q, c)
        assert scores.shape == (1, 2)
        np.testing.assert_allclose(scores[0], [1.0, 0.0])

    def test_cosine_matrix_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine_matrix(np.ones((1, 2)), np.ones((1, 3)))

    def test_top_k_neighbors_order(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        assert top_k(scores, 2, ["a", "b", "c"]) == [["b", "c"]]

    def test_top_k_neighbors_k_larger_than_candidates(self):
        scores = np.array([[0.1, 0.2]])
        assert len(top_k(scores, 10, ["a", "b"])[0]) == 2

    def test_top_k_deterministic_tie_break(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        assert top_k(scores, 3, ["a", "b", "c"]) == [["a", "b", "c"]]

    def test_top_k_invalid_inputs(self):
        with pytest.raises(ValueError):
            top_k(np.ones((1, 2)), 0, ["a", "b"])
        with pytest.raises(ValueError, match="candidate_ids"):
            top_k(np.ones((1, 2)), 1, ["a"])
        with pytest.raises(ValueError, match="candidate_ids"):
            top_k(np.ones((1, 2)), 1, ["a", "b", "c"])


class TestPretrainedEmbeddings:
    def test_vector_is_deterministic(self):
        p = build_synthetic_pretrained()
        np.testing.assert_allclose(p.vector("hello"), p.vector("hello"))

    def test_vector_is_unit_norm(self):
        p = build_synthetic_pretrained()
        assert np.linalg.norm(p.vector("hello")) == pytest.approx(1.0)

    def test_empty_term_returns_none(self):
        p = build_synthetic_pretrained()
        assert p.vector("") is None
        assert p.vector("   ") is None

    def test_cluster_members_are_similar(self):
        p = build_synthetic_pretrained({"speed": ["fast", "quick", "rapid"]})
        assert p.similarity("fast", "quick") > p.similarity("fast", "table")

    def test_typos_are_more_similar_than_unrelated(self):
        p = build_synthetic_pretrained()
        assert p.similarity("italy", "itly") > p.similarity("italy", "planning")

    def test_multiword_term_composition(self):
        p = build_synthetic_pretrained()
        assert p.vector("pulp fiction") is not None
        assert p.similarity("pulp fiction", "pulp") > 0.3

    def test_contains(self):
        p = build_synthetic_pretrained()
        assert "anything" in p
        assert "" not in p
