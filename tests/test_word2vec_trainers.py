"""Tests for the vectorized Word2Vec trainer.

Covers the alias sampler, the numpy pair extraction (exact parity with the
token-loop oracle of ``tests/oracles/word2vec.py`` under a shared window
seed), the mini-batch loop (byte-identical to the oracle's sorted segment
sum, and within float32 rounding of its per-matrix form), config
validation, the corpus encoding (exact parity with the oracle's label path,
for node ids and interned strings), and end-to-end ranking parity with the
oracle swapped into ``TDMatch`` (the ``reference`` runs).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.embeddings.sampling import AliasSampler
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig, run_pair_batches
from repro.graph.graph import MatchGraph
from repro.graph.walk_engine import CSRWalkEngine
from repro.graph.walks import RandomWalkConfig
from tests.oracles.word2vec import (
    encode_reference,
    extract_pairs,
    grow_reference,
    run_pair_batches_per_matrix,
    run_pair_batches_sorted,
    segment_scatter_add,
    train_reference,
)


# ----------------------------------------------------------------------
# Alias sampler
class TestAliasSampler:
    def test_matches_distribution(self):
        probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        sampler = AliasSampler(probs)
        draws = sampler.sample(np.random.default_rng(0), size=200_000)
        freq = np.bincount(draws, minlength=5) / draws.size
        np.testing.assert_allclose(freq, probs, atol=0.01)

    def test_unnormalised_input_is_normalised(self):
        sampler = AliasSampler([2.0, 2.0])
        np.testing.assert_allclose(sampler.probabilities, [0.5, 0.5])

    def test_zero_probability_outcome_never_drawn(self):
        sampler = AliasSampler([0.5, 0.0, 0.5])
        draws = sampler.sample(np.random.default_rng(1), size=50_000)
        assert not np.any(draws == 1)

    def test_single_outcome(self):
        sampler = AliasSampler([1.0])
        assert np.all(sampler.sample(np.random.default_rng(2), size=100) == 0)

    def test_deterministic_given_seed(self):
        sampler = AliasSampler([0.3, 0.3, 0.4])
        a = sampler.sample(np.random.default_rng(7), size=(4, 5))
        b = sampler.sample(np.random.default_rng(7), size=(4, 5))
        assert a.shape == (4, 5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "bad",
        [[], [-0.1, 1.1], [np.nan, 1.0], [0.0, 0.0], [[0.5, 0.5]]],
    )
    def test_invalid_inputs_raise(self, bad):
        with pytest.raises(ValueError):
            AliasSampler(bad)

    def test_alias_over_vocab_distribution_applies_power(self):
        vocab = Vocabulary.from_sentences([["a"] * 16 + ["b"]])
        sampler = AliasSampler(vocab.negative_sampling_distribution())
        counts = np.array([16.0, 1.0])
        expected = counts ** 0.75 / (counts ** 0.75).sum()
        np.testing.assert_allclose(sampler.probabilities, expected)

    def test_alias_matches_rng_choice_statistics(self):
        """The alias table draws from the same law as rng.choice(p=...)."""
        vocab = Vocabulary.from_sentences([["a"] * 9 + ["b"] * 3 + ["c"]])
        dist = vocab.negative_sampling_distribution()
        alias_draws = AliasSampler(dist).sample(np.random.default_rng(3), size=100_000)
        choice_draws = np.random.default_rng(3).choice(len(dist), size=100_000, p=dist)
        alias_freq = np.bincount(alias_draws, minlength=len(dist)) / 100_000
        choice_freq = np.bincount(choice_draws, minlength=len(dist)) / 100_000
        np.testing.assert_allclose(alias_freq, choice_freq, atol=0.01)


# ----------------------------------------------------------------------
# The oracle's sorted segment sum
class TestSegmentScatterAdd:
    def test_matches_add_at(self):
        rng = np.random.default_rng(0)
        # Sort keys are uint8 up to 256 rows, uint16 up to 65536, uint32 above;
        # the last row is always hit (twice), so a key cast too narrow wraps.
        for size, vocab in ((1, 1), (7, 3), (512, 50), (1000, 1000), (2000, 65536), (2000, 65537)):
            expected = rng.random((vocab, 8))
            actual = expected.copy()
            idx = np.append(rng.integers(0, vocab, size=size), [vocab - 1, vocab - 1])
            upd = rng.random((idx.size, 8))
            np.add.at(expected, idx, upd)
            segment_scatter_add(actual, idx, upd)
            np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_empty_indices_noop(self):
        matrix = np.ones((3, 4))
        segment_scatter_add(matrix, np.empty(0, dtype=np.int64), np.empty((0, 4)))
        np.testing.assert_array_equal(matrix, np.ones((3, 4)))

    def test_float32(self):
        matrix = np.zeros((4, 4), dtype=np.float32)
        idx = np.array([1, 1, 3])
        upd = np.ones((3, 4), dtype=np.float32)
        segment_scatter_add(matrix, idx, upd)
        assert matrix.dtype == np.float32
        np.testing.assert_allclose(matrix[1], 2.0)
        np.testing.assert_allclose(matrix[3], 1.0)
        np.testing.assert_allclose(matrix[0], 0.0)


# ----------------------------------------------------------------------
# Fused mini-batch update on the stacked block
#: Fixed from the dtype before measuring.  The fused and per-matrix updates
#: run the same float32 operations and differ only in how sums associate: an
#: output row that is both a positive and a negative of one batch gets the
#: two gradients' sum in one add instead of one add each.  That moves a value
#: by a few ulps of its magnitude (|w| < 1 here, ulp <= 1.2e-7), and four
#: batches at lr <= 0.05 do not amplify it.
FUSED_ATOL = 1e-6


def _fused_case(seed: int):
    """A stacked block, a pair slice with a partial last batch, its negatives.

    The 12-token vocabulary repeats ids within every batch.  Batch 0 draws one
    negative twice and has a context and a center among its negatives, so in
    either id order a negative equals a positive output of its batch.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.5, 0.5, (2 * 12, 8)).astype(np.float32)
    centers = rng.integers(0, 12, size=53)
    contexts = rng.integers(0, 12, size=53)
    negatives = rng.integers(0, 12, size=(4, 4))  # batches of 16, 16, 16, 5
    negatives[0, :2] = contexts[3]
    negatives[0, 2] = centers[3]
    return weights, centers, contexts, negatives


class TestFusedPairUpdate:
    BATCH = 16

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sg", [True, False])
    def test_matches_per_matrix_update(self, seed, sg):
        weights, centers, contexts, negatives = _fused_case(seed)
        # Skip-gram: centers predict contexts; pairwise CBOW: the reverse.
        in_ids, out_ids = (centers, contexts) if sg else (contexts, centers)
        vocab = weights.shape[0] // 2
        w_in = weights[:vocab].copy()
        w_out = weights[vocab:].copy()
        before = weights.copy()
        args = (in_ids, out_ids, negatives, self.BATCH, 7, 300, 0.05, 0.0001)

        step = run_pair_batches(weights, *args)
        expected_step = run_pair_batches_per_matrix(w_in, w_out, *args)

        assert step == expected_step == 7 + 53
        np.testing.assert_allclose(weights[:vocab], w_in, rtol=0, atol=FUSED_ATOL)
        np.testing.assert_allclose(weights[vocab:], w_out, rtol=0, atol=FUSED_ATOL)
        # The updates dwarf the tolerance, so a wrong term cannot hide in it.
        assert np.abs(weights - before).max() > 1000 * FUSED_ATOL

    def test_saturated_logits_stay_finite(self):
        # |logit| = 8 * 40 * 40 = 12800, far past float32 exp's overflow at ~88.
        vocab, dim = 6, 8
        weights = np.full((2 * vocab, dim), 40.0, dtype=np.float32)
        weights[vocab + 1 :: 2] *= -1.0  # odd output rows point away
        in_ids = np.array([0, 1, 2, 3])
        out_ids = np.array([0, 1, 2, 3])
        negatives = np.array([[1, 2, 4, 5]])
        with np.errstate(all="raise"):
            run_pair_batches(weights, in_ids, out_ids, negatives, 4, 0, 4, 0.025, 0.0001)
        assert np.isfinite(weights).all()
        # Saturated positives are already right; saturated negatives push back.
        assert weights[vocab + 2, 0] < 40.0


# ----------------------------------------------------------------------
# The sort-free batch loop against the sorted one, byte for byte
def _assert_matches_sorted_loop(weights, in_ids, out_ids, negatives, batch_size):
    """Both loops from one block: equal steps and ``tobytes()``-equal blocks."""
    expected = weights.copy()
    args = (in_ids, out_ids, negatives, batch_size, 7, 10 * in_ids.size, 0.05, 0.0001)
    step = run_pair_batches(weights, *args)
    assert step == run_pair_batches_sorted(expected, *args) == 7 + in_ids.size
    assert weights.tobytes() == expected.tobytes()


class TestSortFreeBatchLoop:
    """``run_pair_batches`` sums each row's gradient rows in batch-position
    order, as the oracle's stable sort does, so the blocks are equal bytes.

    A tolerance would not do: ``np.add.at`` in place of the product sums the
    same rows in another association and passes ``TestFusedPairUpdate``.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("sg", [True, False])
    def test_fused_case(self, seed, sg):
        # A partial last batch, repeated ids, a negative drawn twice that
        # equals a positive output of its batch.
        weights, centers, contexts, negatives = _fused_case(seed)
        in_ids, out_ids = (centers, contexts) if sg else (contexts, centers)
        before = weights.copy()
        _assert_matches_sorted_loop(weights, in_ids, out_ids, negatives, 16)
        assert np.abs(weights - before).max() > 1e-3

    @pytest.mark.parametrize("batch_size", [53, 54, 500])
    def test_one_batch_holds_every_pair(self, batch_size):
        weights, centers, contexts, negatives = _fused_case(4)
        _assert_matches_sorted_loop(weights, centers, contexts, negatives[:1], batch_size)

    def test_batch_rows_all_one_id(self):
        weights = _fused_case(5)[0]
        ids = np.full(16, 3)
        negatives = np.full((2, 4), 3)  # every output row is the positive's
        _assert_matches_sorted_loop(weights, ids, ids, negatives, 8)

    def test_one_negative(self):
        weights, centers, contexts, negatives = _fused_case(6)
        _assert_matches_sorted_loop(weights, centers, contexts, negatives[:, :1], 16)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        vocab=st.integers(1, 40),
        dim=st.integers(1, 9),
        batch_size=st.integers(1, 40),
        k=st.integers(1, 6),
        n_pairs=st.integers(0, 120),
        seed=st.integers(0, 2**16),
    )
    def test_matches_sorted_loop(self, vocab, dim, batch_size, k, n_pairs, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-0.5, 0.5, (2 * vocab, dim)).astype(np.float32)
        centers = rng.integers(0, vocab, size=n_pairs)
        contexts = rng.integers(0, vocab, size=n_pairs)
        negatives = rng.integers(0, vocab, size=(-(-n_pairs // batch_size), k))
        _assert_matches_sorted_loop(weights, centers, contexts, negatives, batch_size)


# ----------------------------------------------------------------------
# Pair extraction
def _reference_pairs(model, encoded, seed):
    model._rng = np.random.default_rng(seed)
    return extract_pairs(model, encoded, None)


def _vectorized_pairs(model, encoded, seed):
    model._rng = np.random.default_rng(seed)
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
    lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
    return model._extract_pairs_vectorized(flat, lengths, None)


def _model(window: int) -> Word2Vec:
    return Word2Vec(Word2VecConfig(vector_size=8, window=window, epochs=1))


class TestPairExtraction:
    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_exact_sequence_parity(self, window):
        """Same window seed → the two extractions emit identical pair arrays."""
        encoded = [[0, 1, 2, 3, 4, 5], [2, 2, 1], [4, 0], [1, 3, 1, 3, 1]]
        model = _model(window)
        ref_c, ref_x = _reference_pairs(model, encoded, seed=9)
        vec_c, vec_x = _vectorized_pairs(model, encoded, seed=9)
        np.testing.assert_array_equal(ref_c, vec_c)
        np.testing.assert_array_equal(ref_x, vec_x)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        sentence=st.lists(st.integers(0, 9), min_size=2, max_size=20),
        window=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_pair_multiset_parity_per_sentence(self, sentence, window, seed):
        """Property: per (sentence, window-seed), pair multisets agree."""
        model = _model(window)
        ref = _reference_pairs(model, [sentence], seed)
        vec = _vectorized_pairs(model, [sentence], seed)
        ref_pairs = sorted(zip(ref[0].tolist(), ref[1].tolist()))
        vec_pairs = sorted(zip(vec[0].tolist(), vec[1].tolist()))
        assert ref_pairs == vec_pairs

    def test_windows_resample_across_epochs(self):
        """Successive extractions under one rng draw fresh windows."""
        encoded = [list(range(40))]
        model = _model(3)
        model._rng = np.random.default_rng(0)
        flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
        lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
        first = model._extract_pairs_vectorized(flat, lengths, None)
        second = model._extract_pairs_vectorized(flat, lengths, None)
        assert first[0].size != second[0].size or not np.array_equal(first[1], second[1])

    def test_extraction_respects_sentence_boundaries(self):
        """No pair may span two sentences."""
        encoded = [[0, 1], [2, 3]]
        model = _model(5)
        centers, contexts = _vectorized_pairs(model, encoded, seed=1)
        for c, x in zip(centers.tolist(), contexts.tolist()):
            assert (c < 2) == (x < 2)

    def test_subsampling_drops_tokens_and_short_sentences(self):
        model = Word2Vec(Word2VecConfig(vector_size=8, window=2, subsample=1e-4))
        model._rng = np.random.default_rng(0)
        flat = np.asarray([0, 0, 0, 1, 0, 0], dtype=np.int64)
        lengths = np.asarray([3, 3], dtype=np.int64)
        # token 0 is kept with ~1% probability: virtually every sentence
        # shrinks below two tokens and contributes nothing.
        keep = np.asarray([0.01, 1.0])
        centers, _contexts = model._extract_pairs_vectorized(flat, lengths, keep)
        assert centers.size == 0


# ----------------------------------------------------------------------
# Trainer behaviour and config validation
def cooccurrence_corpus(n_sentences=300, seed=0):
    rng = np.random.default_rng(seed)
    groups = [["apple", "banana", "cherry"], ["table", "chair", "sofa"]]
    return [
        [str(w) for w in rng.choice(groups[int(rng.integers(0, 2))], size=6)]
        for _ in range(n_sentences)
    ]


@pytest.fixture(params=["vectorized", "reference"])
def trainer(request, monkeypatch):
    """Train with the library's trainer, or with the oracle swapped in."""
    if request.param == "reference":
        monkeypatch.setattr(Word2Vec, "_train_vectorized", train_reference)
    return request.param


class TestTrainerSelection:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            Word2VecConfig(batch_size=0)

    def test_min_learning_rate_validated(self):
        with pytest.raises(ValueError):
            Word2VecConfig(min_learning_rate=-0.1)

    def test_vocabulary_has_no_dead_negative_table(self):
        assert not hasattr(Vocabulary(), "_neg_table")

    def test_reference_trainer_learns_structure(self, monkeypatch):
        monkeypatch.setattr(Word2Vec, "_train_vectorized", train_reference)
        config = Word2VecConfig(vector_size=32, epochs=4)
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus())
        same = cosine_similarity(model.vector("apple"), model.vector("banana"))
        cross = cosine_similarity(model.vector("apple"), model.vector("chair"))
        assert same > cross

    def test_deterministic_given_seed(self, trainer):
        config = Word2VecConfig(vector_size=16, epochs=2)
        corpus = cooccurrence_corpus(80)
        m1 = Word2Vec(config, seed=3).train(corpus)
        m2 = Word2Vec(config, seed=3).train(corpus)
        np.testing.assert_array_equal(m1.vector("apple"), m2.vector("apple"))

    def test_stats_recorded(self, trainer):
        config = Word2VecConfig(vector_size=8, epochs=2)
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus(40))
        assert model.stats is not None
        assert model.stats.epochs == 2
        assert model.stats.pairs > 0
        assert model.stats.seconds >= 0.0
        assert model.stats.pairs_per_sec >= 0.0

    def test_vectorized_trains_in_float32(self):
        model = Word2Vec(Word2VecConfig(vector_size=8, epochs=1), seed=1).train(
            cooccurrence_corpus(20)
        )
        assert model.embedding_matrix().dtype == np.float32

    def test_reference_trains_in_float64(self, monkeypatch):
        monkeypatch.setattr(Word2Vec, "_train_vectorized", train_reference)
        config = Word2VecConfig(vector_size=8, epochs=1)
        model = Word2Vec(config, seed=1).train(cooccurrence_corpus(20))
        assert model.embedding_matrix().dtype == np.float64

    def test_vectorized_cbow_learns_structure(self):
        config = Word2VecConfig(vector_size=32, epochs=4, sg=False)
        model = Word2Vec(config, seed=2).train(cooccurrence_corpus())
        same = cosine_similarity(model.vector("table"), model.vector("sofa"))
        cross = cosine_similarity(model.vector("table"), model.vector("banana"))
        assert same > cross

    def test_vectorized_subsampling_still_trains(self):
        config = Word2VecConfig(vector_size=16, epochs=2, subsample=1e-2)
        model = Word2Vec(config, seed=4).train(cooccurrence_corpus(100))
        assert model.vector("apple") is not None

    def test_tiny_batch_size_still_trains(self):
        config = Word2VecConfig(vector_size=8, epochs=1, batch_size=1)
        model = Word2Vec(config, seed=1).train([["a", "b", "c"], ["b", "c", "a"]])
        assert model.vector("a") is not None


class TestFineTune:
    def _model(self) -> Word2Vec:
        return Word2Vec(Word2VecConfig(vector_size=8, epochs=1), seed=1).train(
            cooccurrence_corpus(40)
        )

    def test_empty_delta_stores_zero_stats(self):
        model = self._model()
        tuned = model.fine_tune([["apple", "chair", "banana"]])
        assert model.stats is tuned and tuned.pairs > 0
        empty = model.fine_tune([])
        assert model.stats is empty
        assert (empty.pairs, empty.epochs, empty.seconds) == (0, 0, 0.0)

    def test_growth_keeps_rows_and_adds_zero_output_rows(self):
        model = self._model()
        w_in = model._input_vectors.copy()
        w_out = model._output_vectors.copy()
        # One-token sentences grow the vocabulary but yield no pairs.
        stats = model.fine_tune([["kiwi"], ["mango"]])
        vocab = len(w_in)
        assert stats.pairs == 0
        assert model._input_vectors.shape == model._output_vectors.shape == (vocab + 2, 8)
        np.testing.assert_array_equal(model._input_vectors[:vocab], w_in)
        np.testing.assert_array_equal(model._output_vectors[:vocab], w_out)
        np.testing.assert_array_equal(model._output_vectors[vocab:], 0.0)
        assert np.abs(model._input_vectors[vocab:]).min() > 0


# ----------------------------------------------------------------------
# Corpus encoding: node ids and interned strings against the label path
#: Tokens that could trip an encoding: non-ASCII ones, the empty string, and
#: "a" next to "a\x00", which sort apart as Python strings but tie in a
#: numpy "<U" array (it drops trailing NULs).
ENCODING_TOKENS = ["a", "a\x00", "b", "\u00fc", "\u65e5\u672c", "", "z"]
#: Up to twelve sentences, empty and one-token ones included (an isolated
#: node's walk is one token long, and its token is still counted).
CORPORA = st.lists(st.lists(st.sampled_from(ENCODING_TOKENS), max_size=6), max_size=12)
#: The id form indexes a label list in any order, with a label never used.
LABEL_ORDERS = st.permutations(ENCODING_TOKENS + ["unused"])
#: fine_tune's base: min_count=2 keeps "b" and "\u00fc" only, so growth
#: must add back tokens the build cut.
BASE_CORPUS = [["b", "a", "b", "\u00fc"], ["\u00fc", "b"], ["a\x00"]]


def _as_ids(corpus, labels):
    index = {label: i for i, label in enumerate(labels)}
    return [np.array([index[t] for t in s], dtype=np.int32) for s in corpus]


def _trainer_input(call, *args, **kwargs):
    """Run ``call`` with the trainer stubbed out; returns its result and
    the ``(flat_ids, lengths)`` the trainer received (empty if never called)."""
    received = {}

    def capture(model, weights, flat_ids, lengths, keep_probs):
        received.update(flat=flat_ids, lengths=lengths)
        return 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Word2Vec, "_train_vectorized", capture)
        result = call(*args, **kwargs)
    return result, received


def _assert_encoded(model, received, tokens, counts, encoded):
    assert model.vocab.tokens == tokens
    assert [int(c) for c in model.vocab.counts_array()] == counts
    if not encoded:
        assert received == {}
        return
    assert received["flat"].dtype == received["lengths"].dtype == np.int64
    np.testing.assert_array_equal(received["flat"], np.concatenate(encoded))
    np.testing.assert_array_equal(received["lengths"], [len(e) for e in encoded])


class TestCorpusEncoding:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=CORPORA, labels=LABEL_ORDERS, min_count=st.integers(1, 3))
    def test_build_matches_label_path(self, corpus, labels, min_count):
        tokens, counts, encoded = encode_reference(corpus, min_count=min_count)
        config = Word2VecConfig(vector_size=4, epochs=1, min_count=min_count)
        for sentences, corpus_labels in ((corpus, None), (_as_ids(corpus, labels), labels)):
            train = Word2Vec(config, seed=0).train
            if not encoded:
                # An empty corpus, vocabulary or encoded corpus cannot train.
                with pytest.raises(ValueError):
                    _trainer_input(train, sentences, labels=corpus_labels)
                continue
            model, received = _trainer_input(train, sentences, labels=corpus_labels)
            _assert_encoded(model, received, tokens, counts, encoded)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(delta=CORPORA, labels=LABEL_ORDERS)
    def test_growth_matches_label_path(self, delta, labels):
        base_tokens, base_counts, _ = encode_reference(BASE_CORPUS, min_count=2)
        tokens, counts, encoded = grow_reference(base_tokens, base_counts, delta)
        config = Word2VecConfig(vector_size=4, epochs=1, min_count=2)
        for sentences, corpus_labels in ((delta, None), (_as_ids(delta, labels), labels)):
            model = Word2Vec(config, seed=0).train(BASE_CORPUS)
            assert model.vocab.tokens == base_tokens
            stats, received = _trainer_input(model.fine_tune, sentences, labels=corpus_labels)
            _assert_encoded(model, received, tokens, counts, encoded)
            assert model._input_vectors.shape == (len(tokens), 4)
            assert stats.pairs == 0

    @pytest.mark.parametrize(
        "config",
        [
            Word2VecConfig(vector_size=8, epochs=2),
            Word2VecConfig(vector_size=8, epochs=2, sg=False, min_count=3, subsample=1e-2),
        ],
        ids=["skip-gram", "cbow-min-count-subsample"],
    )
    def test_id_walks_train_like_their_label_sentences(self, config):
        graph = MatchGraph()
        for i in range(12):
            graph.add_node(f"n{i}")
        graph.add_node("iso")  # its walks are one token long
        rng = np.random.default_rng(0)
        for u, v in rng.integers(0, 12, size=(30, 2)):
            if u != v:
                graph.add_edge(f"n{u}", f"n{v}")
        engine = CSRWalkEngine(graph, RandomWalkConfig(num_walks=4, walk_length=8))
        walks = list(engine.iter_walks(seed=4))
        csr = engine.csr

        by_id = Word2Vec(config, seed=7).train(walks, labels=csr.labels)
        by_label = Word2Vec(config, seed=7).train([csr.decode(w) for w in walks])
        assert by_id.vocab.tokens == by_label.vocab.tokens
        assert by_id.stats.pairs == by_label.stats.pairs > 0
        assert np.array_equal(by_id._input_vectors, by_label._input_vectors)
        assert np.array_equal(by_id._output_vectors, by_label._output_vectors)

        delta = [w for w in walks if w.size > 1][:10]
        by_id.fine_tune(delta, labels=csr.labels)
        by_label.fine_tune([csr.decode(w) for w in delta])
        assert np.array_equal(by_id._input_vectors, by_label._input_vectors)
        assert np.array_equal(by_id._output_vectors, by_label._output_vectors)

    def test_ids_outside_labels_rejected(self):
        with pytest.raises(ValueError, match="index labels"):
            Word2Vec(Word2VecConfig(vector_size=4)).train([np.array([0, 2])], labels=["a", "b"])


# ----------------------------------------------------------------------
# End-to-end parity through the pipeline
@pytest.fixture(scope="module")
def tiny_parity_runs():
    scenario = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=11)
    runs = {}
    for trainer in ("vectorized", "reference"):
        pipeline = TDMatch(TDMatchConfig.fast(), seed=3)
        with pytest.MonkeyPatch.context() as patch:
            if trainer == "reference":
                patch.setattr(Word2Vec, "_train_vectorized", train_reference)
            pipeline.fit(scenario.first, scenario.second)
        runs[trainer] = (pipeline, pipeline.match(k=5))
    return scenario, runs


class TestTrainerParity:
    def test_top1_ids_identical(self, tiny_parity_runs):
        """Exact-id parity at small scale: the matched candidate agrees."""
        _scenario, runs = tiny_parity_runs
        vec_ids = runs["vectorized"][1].as_id_lists()
        ref_ids = runs["reference"][1].as_id_lists()
        assert set(vec_ids) == set(ref_ids)
        for query in vec_ids:
            assert vec_ids[query][:1] == ref_ids[query][:1]

    def test_quality_parity(self, tiny_parity_runs):
        from repro.eval.metrics import evaluate_rankings

        scenario, runs = tiny_parity_runs
        reports = {
            trainer: evaluate_rankings(trainer, rankings, scenario.gold, ks=(1, 5))
            for trainer, (_p, rankings) in runs.items()
        }
        assert abs(reports["vectorized"].mrr - reports["reference"].mrr) <= 0.05
        assert (
            abs(reports["vectorized"].map_at[5] - reports["reference"].map_at[5]) <= 0.05
        )

    def test_pipeline_records_trainer_notes(self, tiny_parity_runs):
        _scenario, runs = tiny_parity_runs
        for pipeline, _rankings in runs.values():
            assert pipeline.report()["model"]["pairs_per_sec"] > 0
