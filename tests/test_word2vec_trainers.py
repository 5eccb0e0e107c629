"""Tests for the vectorized Word2Vec trainer.

Covers the alias sampler, the numpy pair extraction (exact parity with the
token-loop oracle of ``tests/oracles/word2vec.py`` under a shared window
seed), the mini-batch loop (byte-identical to the oracle's sorted segment
sum, and within float32 rounding of its per-matrix form), config
validation, the epoch loop (bounds on the memory traced per pair, the
row shuffle's draws, epochs that subsampling leaves without pairs), the
id dtype (int16 and int32 ids train the same bytes), the corpus encoding
(exact parity with the oracle's label path, for node ids and interned
strings, a flat id corpus equal to its walks, and a bound on its memory
per token), and end-to-end ranking parity with the oracle swapped into
``TDMatch`` (the ``reference`` runs).
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.embeddings import word2vec
from repro.embeddings.sampling import AliasSampler
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.vocab import IdCorpus, Vocabulary
from repro.embeddings.word2vec import (
    Word2Vec,
    Word2VecConfig,
    _id_dtype,
    _index_dtype,
    run_pair_batches,
)
from repro.graph.walk_engine import CSRWalkEngine
from repro.graph.walks import RandomWalkConfig
from repro.parallel import trainer as parallel_trainer
from tests.oracles.graph import graph_of
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

    # The add-back is dense when the block has fewer rows than a batch
    # gathers (2V + 1 <= W, W = 2B + K), sparse on taller blocks.  With
    # V = 20 and B = 16, K picks 2V + 1 against W: W - 1, W or W + 1.
    @pytest.mark.parametrize("k, dense", [(10, True), (9, True), (8, False)])
    @pytest.mark.parametrize("sg", [True, False])
    def test_forms_at_the_rule_boundary(self, k, dense, sg):
        """Both forms equal the oracle byte for byte on a partial last batch
        (batches of 16, 16, 16, 5), whose unused columns hold stale rows.
        Untouched ``-0.0`` rows tell the forms apart: the dense ``+=`` adds
        ``+0.0`` to them, the sparse form never reads them."""
        vocab, batch = 20, 16
        rng = np.random.default_rng(k)
        weights = rng.uniform(-0.5, 0.5, (2 * vocab, 8)).astype(np.float32)
        centers, contexts = rng.integers(0, vocab - 2, size=(2, 53))
        negatives = rng.integers(0, vocab - 2, size=(4, k))
        in_ids, out_ids = (centers, contexts) if sg else (contexts, centers)
        untouched = [vocab - 2, vocab - 1, 2 * vocab - 2, 2 * vocab - 1]
        weights[untouched] = -0.0
        assert (2 * vocab + 1 <= 2 * batch + k) == dense

        expected = weights.copy()
        args = (in_ids, out_ids, negatives, batch, 7, 10 * in_ids.size, 0.05, 0.0001)
        assert run_pair_batches(weights, *args) == run_pair_batches_sorted(expected, *args)
        # Equal as numbers everywhere, and as bits once zeros lose their sign.
        np.testing.assert_array_equal(weights, expected)
        assert (weights + 0.0).tobytes() == (expected + 0.0).tobytes()
        assert np.signbit(expected[untouched]).all()
        assert np.signbit(weights[untouched]).all() == (not dense)

    def test_tall_block_keeps_the_sparse_form(self):
        """A block far taller than its batch adds back through the batch's
        distinct rows: the call's traced peak holds the ``(2V,)`` int32
        ``slot`` (0.4 MB here), not a ``(2V + 1, D)`` float32 product
        (6.4 MB)."""
        vocab, dim, batch = 50_000, 16, 16
        rng = np.random.default_rng(0)
        weights = rng.uniform(-0.5, 0.5, (2 * vocab, dim)).astype(np.float32)
        centers, contexts = rng.integers(0, vocab, size=(2, 40))
        negatives = rng.integers(0, vocab, size=(3, 5))
        expected = weights.copy()
        args = (centers, contexts, negatives, batch, 0, 80, 0.025, 0.0001)
        _step, peak = _traced_peak(lambda: run_pair_batches(weights, *args))
        assert 2 * vocab * 4 <= peak < (2 * vocab + 1) * dim * 4, f"{peak / 2**20:.2f} MB"
        run_pair_batches_sorted(expected, *args)
        assert weights.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Pair extraction
def _reference_pairs(model, encoded, seed):
    model._rng = np.random.default_rng(seed)
    return extract_pairs(model, encoded, None)


def _pair_block(model, flat, lengths, keep_probs=None):
    """The extraction's block, checked for its form: C-contiguous ``(n, 2)``
    rows in the dtype of ``flat``."""
    pairs = model._extract_pairs_vectorized(flat, lengths, keep_probs)
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert pairs.flags.c_contiguous and pairs.dtype == flat.dtype
    return pairs


def _vectorized_pairs(model, encoded, seed):
    """(centers, contexts): the two columns of the extraction's block."""
    model._rng = np.random.default_rng(seed)
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
    lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
    return tuple(_pair_block(model, flat, lengths).T)


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
        first = _pair_block(model, flat, lengths)
        second = _pair_block(model, flat, lengths)
        assert first.shape != second.shape or not np.array_equal(first, second)

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
        assert _pair_block(model, flat, lengths, keep).shape == (0, 2)

    def test_index_dtype_widens_past_int32(self):
        """Positions stay int32 up to 2³¹ − 1 and widen at 2³¹."""
        assert _index_dtype(0) == _index_dtype(2**31 - 1) == np.int32
        assert _index_dtype(2**31) == _index_dtype(2**40) == np.int64

    @pytest.mark.parametrize(
        "widen_above", [0, 60, None], ids=["all-int64", "pairs-int64", "all-int32"]
    )
    def test_position_dtype_does_not_change_pairs(self, widen_above, monkeypatch):
        """Widened positions (a corpus past 2³¹ tokens or pairs) emit the
        pairs of the oracle; 60 widens the pair positions only (53 tokens
        plus the window, over 100 pairs)."""
        encoded = [list(range(i, i + 9)) for i in range(0, 45, 9)] + [[1, 2, 3], [4, 5, 6, 7, 8]]
        if widen_above is not None:
            monkeypatch.setattr(
                word2vec,
                "_index_dtype",
                lambda n: np.dtype(np.int64 if n > widen_above else np.int32),
            )
        model = _model(4)
        ref_c, ref_x = _reference_pairs(model, encoded, seed=5)
        model._rng = np.random.default_rng(5)
        flat = np.concatenate(encoded).astype(np.int32)
        lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
        pairs = _pair_block(model, flat, lengths)
        assert ref_c.size > 100
        assert pairs.dtype == np.int32
        np.testing.assert_array_equal(pairs[:, 0], ref_c)
        np.testing.assert_array_equal(pairs[:, 1], ref_x)

    @pytest.mark.parametrize("chunk", [1, 7, 64, None], ids=lambda c: f"chunk-{c}")
    @pytest.mark.parametrize("subsample", [False, True], ids=["all-tokens", "subsampled"])
    @pytest.mark.parametrize("widen", [False, True], ids=["int32-positions", "int64-positions"])
    def test_block_equals_oracle_across_chunks(self, chunk, subsample, widen, monkeypatch):
        """The block written a chunk of centers at a time holds the oracle's
        pairs, byte for byte, whether a chunk is one token, a few, or the
        default (the corpus spans three default chunks), with int32 or int64
        positions.  Subsampling draws every token's keep flag before the
        windows, so the oracle runs on the sentences those flags leave."""
        rng = np.random.default_rng(3)
        encoded = [rng.integers(0, 40, size=int(n)).tolist() for n in rng.integers(1, 30, size=700)]
        if chunk is not None:
            monkeypatch.setattr(word2vec, "PAIR_CHUNK_TOKENS", chunk)
        if widen:
            monkeypatch.setattr(word2vec, "_index_dtype", lambda n: np.dtype(np.int64))
        flat = np.concatenate(encoded).astype(np.int32)
        lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
        if chunk is None:
            assert flat.size > 2 * word2vec.PAIR_CHUNK_TOKENS
        model = _model(5)
        keep_probs = np.linspace(0.2, 1.0, 40) if subsample else None

        model._rng = np.random.default_rng(11)
        survivors = encoded
        if subsample:
            keep = (model._rng.random(flat.size) < keep_probs[flat]).tolist()
            flags = iter(keep)
            survivors = [[t for t in s if next(flags)] for s in encoded]
            survivors = [s for s in survivors if len(s) >= 2]
            assert 0 < sum(map(len, survivors)) < 0.8 * flat.size
        ref_c, ref_x = extract_pairs(model, survivors, None)
        expected = np.stack([ref_c, ref_x], axis=1).astype(np.int32)
        ref_next = model._rng.integers(2**62)

        model._rng = np.random.default_rng(11)
        pairs = _pair_block(model, flat, lengths, keep_probs)
        assert pairs.tobytes() == expected.tobytes()
        # Both extractions leave the stream at the same place.
        assert model._rng.integers(2**62) == ref_next


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
# Epoch loop: one epoch's pair block at a time, the row shuffle's draws,
# epochs that subsampling empties
#: Peak bytes traced while training, per pair of one epoch (36,000 tokens,
#: ~124k pairs an epoch).  One epoch's int16 pair block, the extraction's
#: per-token state and one chunk of its temporaries take ~9.8 (train) and
#: ~11.9 (fine_tune); int32 ids took ~14.7 and ~16.9, two int32 id arrays
#: permuted through an int32 index ~19, and int64 pairs kept through the
#: next extraction ~80.
MAX_BYTES_PER_PAIR = 13
#: Growth of that peak per pair of an epoch between two corpora 4× apart,
#: which leaves out what does not grow with the corpus (one chunk of
#: extraction temporaries, the batch loop's scratch): the 4-byte block,
#: ~2.3 of per-token extraction state and ~0.6 of encoded corpus make
#: ~7.2; int32 ids (an 8-byte block, ~1.2 of corpus) made ~11.8, and the
#: permutation through an int32 index and a gathered copy ~17.4.
MAX_BYTES_PER_PAIR_SLOPE = 9
#: Five two-token sentences under heavy subsampling: most epochs keep no pair.
SPARSE_CORPUS = [["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"], ["i", "j"]]
SPARSE_CONFIG = Word2VecConfig(vector_size=4, epochs=3, subsample=0.01)
ID_LABELS = [f"t{i}" for i in range(400)]
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _id_walks(seed, n_walks, length=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, len(ID_LABELS), size=length).astype(np.int32) for _ in range(n_walks)]


def _trained_on_id_walks() -> Word2Vec:
    config = Word2VecConfig(vector_size=16, window=3, epochs=2)
    # The first fit of a process imports and builds lazily; keep that out of
    # any measured peak.
    Word2Vec(config, seed=0).train(_id_walks(1, 50), labels=ID_LABELS)
    return Word2Vec(config, seed=1)


def _traced_peak(call):
    """``call()``'s result, and the peak bytes traced above the start while
    it runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def _peak_and_epoch_pairs(call):
    """Peak bytes traced above the start while ``call()`` runs, and the pairs
    per epoch of the :class:`TrainingStats` it returns."""
    stats, peak = _traced_peak(call)
    assert stats.pairs > 0
    return peak, stats.pairs / stats.epochs


def _peak_bytes_per_pair(call) -> float:
    """Peak bytes traced while ``call()`` runs, per pair of one epoch."""
    peak, epoch_pairs = _peak_and_epoch_pairs(call)
    return peak / epoch_pairs


def _epoch_spy(monkeypatch):
    """Record each extraction's pair count and each epoch's (step, total_steps)."""
    sizes, schedule = [], []
    extract = Word2Vec._extract_pairs_vectorized
    run_epoch = parallel_trainer.run_epoch

    def spy_extract(model, *args):
        pairs = extract(model, *args)
        sizes.append(len(pairs))
        return pairs

    def spy_run_epoch(*args):
        schedule.append(args[6:8])  # (step, total_steps), passed by position
        return run_epoch(*args)

    monkeypatch.setattr(Word2Vec, "_extract_pairs_vectorized", spy_extract)
    monkeypatch.setattr(parallel_trainer, "run_epoch", spy_run_epoch)
    return sizes, schedule


class TestEpochLoop:
    @pytest.mark.parametrize("n", [0, 1, 2, 31, 1000, 65_537])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_int32_shuffle_draws_the_permutation(self, n, seed):
        """The trainer's in-place shuffle of an int32 pair block's rows
        equals ``block[rng.permutation(n)]`` and leaves the stream where
        ``permutation`` does; int16 rows (4-byte items, numpy's generic
        swap) and int64 rows (16-byte items) shuffle alike."""
        block = np.random.default_rng(n).integers(-(2**31), 2**31, size=(n, 2)).astype(np.int32)
        expected = np.random.default_rng(seed)
        permuted = block[expected.permutation(n)]
        after = expected.integers(2**62)
        for dtype in (np.int16, np.int32, np.int64):
            rows = block.astype(dtype)
            rng = np.random.default_rng(seed)
            word2vec._shuffle_rows(rows, rng)
            assert rows.tobytes() == permuted.astype(dtype).tobytes()
            assert rng.integers(2**62) == after

    def test_train_peak_per_pair_bounded(self):
        model = _trained_on_id_walks()
        walks = _id_walks(0, 3000)
        per_pair = _peak_bytes_per_pair(lambda: model.train(walks, labels=ID_LABELS).stats)
        assert per_pair <= MAX_BYTES_PER_PAIR, f"{per_pair:.1f} B per pair"

    def test_train_peak_grows_by_the_block(self):
        """Between 1,000 and 4,000 walks the peak grows by what one more pair
        of an epoch holds; the fixed scratch cancels out."""
        small, large = (
            _peak_and_epoch_pairs(lambda: model.train(walks, labels=ID_LABELS).stats)
            for model, walks in (
                (_trained_on_id_walks(), _id_walks(0, 1000)),
                (_trained_on_id_walks(), _id_walks(0, 4000)),
            )
        )
        assert large[1] > 3.9 * small[1]
        slope = (large[0] - small[0]) / (large[1] - small[1])
        assert slope <= MAX_BYTES_PER_PAIR_SLOPE, f"{slope:.1f} B per pair"

    def test_fine_tune_peak_per_pair_bounded(self):
        model = _trained_on_id_walks().train(_id_walks(0, 3000), labels=ID_LABELS)
        # Half as many walks again, each ending in one of seven new ids.
        walks = _id_walks(5, 1500)
        delta = [np.append(w, 400 + i % 7).astype(np.int32) for i, w in enumerate(walks)]
        grown = ID_LABELS + [f"new{i}" for i in range(7)]
        per_pair = _peak_bytes_per_pair(lambda: model.fine_tune(delta, labels=grown))
        assert len(model.vocab) == 407
        assert per_pair <= MAX_BYTES_PER_PAIR, f"{per_pair:.1f} B per pair"

    def test_perfbench_fit_block_holds_no_negative_zero(self, monkeypatch):
        """perfbench's ``fit`` inputs at seed 1 take the dense add-back,
        which turns an untouched ``-0.0`` into ``+0.0``; the trained block
        holds none, so the fit's bytes are the sparse form's."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH_DIR / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        size = ScenarioSize(n_entities=workloads.WORKLOADS["fit"].n_entities)
        scenario = generate_scenario(workloads.SCENARIO, size=size, seed=1)
        base, _delta = workloads.split_delta(scenario.second)
        model = TDMatch(workloads.make_config(), seed=1).fit(scenario.first, base).state.model
        block = np.concatenate((model._input_vectors, model._output_vectors))
        assert 2 * len(model.vocab) + 1 <= 2 * model.config.batch_size + model.config.negative
        assert not np.signbit(block[block == 0]).any()

    def test_empty_first_epoch_trains_on_later_ones(self, monkeypatch):
        """At seed 0 epoch 0 keeps no pair; the epochs after it train, and
        the first of them anchors the decay over the epochs left."""
        sizes, schedule = _epoch_spy(monkeypatch)
        model = Word2Vec(SPARSE_CONFIG, seed=0).train(SPARSE_CORPUS)
        assert len(sizes) == SPARSE_CONFIG.epochs and sizes[0] == 0
        first = next(epoch for epoch, n in enumerate(sizes) if n)
        trained = [n for n in sizes if n]
        assert model.stats.epochs == len(trained) == len(schedule)
        assert model.stats.pairs == sum(trained)
        assert schedule[0] == (0, (SPARSE_CONFIG.epochs - first) * sizes[first])

    def test_no_pair_in_any_epoch(self, monkeypatch):
        """A build raises only when no epoch keeps a pair (seed 3); growth
        returns a zero record and leaves the vectors as they were (seed 1)."""
        sizes, _schedule = _epoch_spy(monkeypatch)
        with pytest.raises(ValueError, match="no training pairs"):
            Word2Vec(SPARSE_CONFIG, seed=3).train(SPARSE_CORPUS)
        assert sizes == [0, 0, 0]
        model = Word2Vec(SPARSE_CONFIG, seed=1).train(cooccurrence_corpus(40))
        before = model._input_vectors.copy(), model._output_vectors.copy()
        sizes.clear()
        stats = model.fine_tune([["apple", "banana"]])
        assert sizes == [0, 0, 0]
        assert model.stats is stats
        assert (stats.pairs, stats.epochs, stats.pairs_per_sec) == (0, 0, 0.0)
        np.testing.assert_array_equal(model._input_vectors, before[0])
        np.testing.assert_array_equal(model._output_vectors, before[1])


# ----------------------------------------------------------------------
# Vocabulary ids in the narrowest type: int16 up to 32,768 tokens
class TestIdDtype:
    def test_helper_at_the_boundary(self):
        """32,768 tokens keep their largest id (32,767) and the ``-1`` mark
        in int16; one more token takes int32."""
        assert _id_dtype(1) == _id_dtype(32_768) == np.int16
        assert _id_dtype(32_769) == _id_dtype(2**31) == np.int32

    # 1e-4 keeps each token with probability 0.17-0.96 here, so
    # subsampling drops tokens and whole sentences.
    @pytest.mark.parametrize("subsample", [0.0, 1e-4], ids=["all-tokens", "subsampled"])
    @pytest.mark.parametrize("sg", [True, False], ids=["skip-gram", "cbow"])
    def test_fit_is_the_same_in_int16_and_int32(self, sg, subsample, monkeypatch):
        """A fit with its ids forced to int16 and to int32 trains equal
        blocks, byte for byte, over equal pair counts."""
        config = Word2VecConfig(vector_size=8, window=3, epochs=2, sg=sg, subsample=subsample)
        walks = _id_walks(2, 300)
        run_epoch = parallel_trainer.run_epoch
        fits = []
        for dtype in (np.int16, np.int32):
            seen = set()

            def spy_run_epoch(pool, weights, in_ids, *args):
                seen.add(in_ids.dtype)
                return run_epoch(pool, weights, in_ids, *args)

            monkeypatch.setattr(word2vec, "_id_dtype", lambda n, dtype=dtype: np.dtype(dtype))
            monkeypatch.setattr(parallel_trainer, "run_epoch", spy_run_epoch)
            model = Word2Vec(config, seed=6).train(walks, labels=ID_LABELS)
            assert seen == {np.dtype(dtype)}
            block = np.concatenate((model._input_vectors, model._output_vectors))
            fits.append((model.stats.pairs, block.tobytes()))
        assert fits[0][0] > 0
        assert fits[0] == fits[1]

    def test_batch_rows_widen_before_the_output_offset(self):
        """int16 ids of a 20,000-token vocabulary, output ids at or above
        16,384: ``out + V`` in int16 would wrap to negative rows, which
        numpy indexes from the end without a word.  The rows widen first,
        so the block equals the sorted loop's on int64 ids, byte for byte
        (the sparse add-back: 2V + 1 far above the batch's rows)."""
        vocab, dim, batch = 20_000, 8, 16
        rng = np.random.default_rng(0)
        weights = rng.uniform(-0.5, 0.5, (2 * vocab, dim)).astype(np.float32)
        pairs = np.stack(
            (rng.integers(0, vocab, size=53), rng.integers(16_384, vocab, size=53)), axis=1
        ).astype(_id_dtype(vocab))
        assert pairs.dtype == np.int16
        negatives = rng.integers(16_384, vocab, size=(4, 5))  # batches of 16, 16, 16, 5
        expected = weights.copy()
        args = (negatives, batch, 7, 10 * len(pairs), 0.05, 0.0001)
        step = run_pair_batches(weights, pairs[:, 0], pairs[:, 1], *args)
        wide = pairs.astype(np.int64)
        assert step == run_pair_batches_sorted(expected, wide[:, 0], wide[:, 1], *args)
        assert weights.tobytes() == expected.tobytes()


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
#: Peak bytes traced while ``_encode`` runs, per token of the 36,000-token
#: id corpus: int16 ids, their keep mask, one running count of kept tokens
#: and the kept ids take ~11.8; int32 ids with an int64 sentence index per
#: token, gathered again for the kept ones, took ~21.8.
MAX_ENCODE_BYTES_PER_TOKEN = 14


def _as_ids(corpus, labels):
    index = {label: i for i, label in enumerate(labels)}
    return [np.array([index[t] for t in s], dtype=np.int32) for s in corpus]


def _trainer_input(call, *args, **kwargs):
    """Run ``call`` with the trainer stubbed out; returns its result and
    the ``(flat_ids, lengths)`` the trainer received (empty if never called)."""
    received = {}

    def capture(model, weights, flat_ids, lengths, keep_probs):
        received.update(flat=flat_ids, lengths=lengths)
        return 0, 1

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
    assert received["flat"].dtype == _id_dtype(len(model.vocab))
    assert received["lengths"].dtype == np.int64
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
        rng = np.random.default_rng(0)
        graph = graph_of(
            [f"n{i}" for i in range(12)] + ["iso"],  # iso's walks are one token long
            [(f"n{u}", f"n{v}") for u, v in rng.integers(0, 12, size=(30, 2)) if u != v],
        )
        engine = CSRWalkEngine(graph, RandomWalkConfig(num_walks=4, walk_length=8))
        walks = list(engine.iter_walks(seed=4))
        labels = graph.labels

        def decode(walk):
            return [labels[i] for i in walk]

        by_id = Word2Vec(config, seed=7).train(walks, labels=labels)
        by_label = Word2Vec(config, seed=7).train([decode(w) for w in walks])
        assert by_id.vocab.tokens == by_label.vocab.tokens
        assert by_id.stats.pairs == by_label.stats.pairs > 0
        assert np.array_equal(by_id._input_vectors, by_label._input_vectors)
        assert np.array_equal(by_id._output_vectors, by_label._output_vectors)

        delta = [w for w in walks if w.size > 1][:10]
        by_id.fine_tune(delta, labels=labels)
        by_label.fine_tune([decode(w) for w in delta])
        assert np.array_equal(by_id._input_vectors, by_label._input_vectors)
        assert np.array_equal(by_id._output_vectors, by_label._output_vectors)

    @pytest.mark.parametrize(
        "config",
        [
            Word2VecConfig(vector_size=8, epochs=2),
            Word2VecConfig(vector_size=8, epochs=2, sg=False, min_count=3, subsample=1e-2),
        ],
        ids=["skip-gram", "cbow-min-count-subsample"],
    )
    def test_id_corpus_trains_like_its_walk_list(self, config):
        """``train`` and ``fine_tune`` read an :class:`IdCorpus` of the walks
        as they read the walks one array each: equal blocks, vocabularies
        and stats, byte for byte."""
        rng = np.random.default_rng(1)
        graph = graph_of(
            [f"n{i}" for i in range(40)] + ["iso"],  # iso's walks are one token long
            [(f"n{u}", f"n{v}") for u, v in rng.integers(0, 40, size=(90, 2)) if u != v],
        )
        engine = CSRWalkEngine(graph, RandomWalkConfig(num_walks=6, walk_length=10))
        walks = list(engine.iter_walks(seed=2))
        delta = walks[::7]
        labels = graph.labels

        models = []
        for as_corpus in (lambda w: w, IdCorpus.concatenate):
            model = Word2Vec(config, seed=9).train(as_corpus(walks), labels=labels)
            built = (model.stats.pairs, model.stats.epochs, model._input_vectors.tobytes())
            tuned = model.fine_tune(as_corpus(delta), labels=labels)
            models.append((built, (tuned.pairs, tuned.epochs), model))
        (built, tuned, by_list), (built_flat, tuned_flat, by_corpus) = models
        assert built == built_flat and built[0] > 0
        assert tuned == tuned_flat and tuned[0] > 0
        assert by_list.vocab.tokens == by_corpus.vocab.tokens
        assert by_list.vocab.counts_array().tobytes() == by_corpus.vocab.counts_array().tobytes()
        for matrix in ("_input_vectors", "_output_vectors"):
            assert getattr(by_list, matrix).tobytes() == getattr(by_corpus, matrix).tobytes()

    def test_encode_peak_per_token_bounded(self):
        flat, lengths = IdCorpus.concatenate(_id_walks(0, 3000))
        counts = np.bincount(flat, minlength=len(ID_LABELS))
        model = Word2Vec(Word2VecConfig(vector_size=4))
        model.vocab = Vocabulary.from_counts(ID_LABELS, counts, min_count=1)
        (ids, kept), peak = _traced_peak(lambda: model._encode(flat, lengths, ID_LABELS, counts))
        # Every label occurs, so every token and sentence stays.
        np.testing.assert_array_equal(ids, model.vocab.ids_of([ID_LABELS[i] for i in flat]))
        assert kept.tobytes() == lengths.tobytes()
        per_token = peak / flat.size
        assert per_token <= MAX_ENCODE_BYTES_PER_TOKEN, f"{per_token:.1f} B per token"

    def test_id_corpus_concatenates_walks(self):
        walks = _id_walks(3, 7, length=5) + [np.array([7], dtype=np.int32)]
        corpus = IdCorpus.concatenate(iter(walks))
        assert corpus.ids.tobytes() == np.concatenate(walks).tobytes()
        assert corpus.lengths.tobytes() == np.array([5] * 7 + [1], dtype=np.int64).tobytes()
        empty = IdCorpus.concatenate([])
        assert empty.ids.dtype == empty.lengths.dtype == np.int64 and empty.ids.size == 0

    def test_id_corpus_checked(self):
        corpus = IdCorpus(np.array([0, 1, 1], dtype=np.int32), np.array([2, 2]))
        with pytest.raises(ValueError, match="sum to its id count"):
            Word2Vec(Word2VecConfig(vector_size=4)).train(corpus, labels=["a", "b"])
        with pytest.raises(ValueError, match="needs the labels"):
            Word2Vec(Word2VecConfig(vector_size=4)).train(corpus._replace(lengths=np.array([3])))

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
