"""Word2Vec (Skip-gram and CBOW) with negative sampling, on numpy.

This is the embedding generator of Algorithm 4: the random-walk sentences
are fed to Word2Vec and the resulting vectors for metadata-node labels are
the document representations used for matching.  The paper uses Skip-gram
with window 3 for text-to-data tasks and CBOW with window 15 for text-only
tasks; both variants are implemented.

The trainer reads integer ids, as the word2vec C tool does; labels only
look vectors up.  Node-id walks come with the graph's labels
(``train(walks, labels=...)``) and token strings are interned to
the same form; one ``np.bincount`` counts the vocabulary and one gather
encodes the corpus.

Training is vectorised end to end:

* Pair extraction is fully numpy: the corpus is one flat id array with
  per-sentence lengths, the per-position reduced windows of a
  whole epoch come from a single ``rng.integers`` draw, and the (center,
  context) pairs fall out of vectorised offset arithmetic.  Windows are
  resampled every epoch, as in the original word2vec implementation.
* Negatives come from a precomputed alias table
  (:class:`~repro.embeddings.sampling.AliasSampler`) — one O(1)-per-draw
  call per epoch instead of per-batch ``rng.choice(p=...)`` with its
  O(vocab) cumulative-distribution rebuild — and are *shared across each
  mini-batch* (drawn per batch, not per pair), so the negative side of the
  update is two small dense matmuls and only K extra gradient rows.
* The model trains in float32 (as gensim does) on one stacked ``(2V, D)``
  block: rows ``[0, V)`` are the input vectors, rows ``[V, 2V)`` the output
  vectors.  A mini-batch is one gather of every row it touches, one
  ``(B, 1 + K)`` logit block through one in-place sigmoid, and one product
  of a one-hot CSC matrix with all its gradient rows — input,
  positive-output and negative rows alike — instead of a sort or the slow
  buffered ``np.add.at``.  The one-hot is built once per pair slice and
  re-pointed in place per batch.  When the block has fewer rows than a
  batch gathers, its rows are the block's and one dense ``+=`` adds the
  product back; on taller blocks they are the batch's distinct rows, and
  only those are gathered, added to and scattered.  scipy's CSC product
  adds its columns in order, so either way each row sums its gradient
  rows in batch order (see :func:`run_pair_batches`).
* One epoch's pairs are alive at a time, as one C-contiguous ``(n_pairs,
  2)`` block of vocabulary ids in the narrowest signed type that holds
  them (:func:`_id_dtype`: int16 up to 32,768 tokens, int32 above): 4
  bytes per pair in int16, and ~7 of peak growth per pair with the
  extraction's per-token state and the encoded corpus (8 and ~12 in
  int32).  Pair extraction fills the block :data:`PAIR_CHUNK_TOKENS`
  centers at a time, so its position temporaries span one chunk;
  positions are int32 until the token or pair count reaches 2³¹.  The
  permutation shuffles the block's rows in place as opaque items
  (:func:`_shuffle_rows`), with no index and no gathered copy.  The draws
  are an int64 trainer's: windows are drawn in int64 and narrowed, and the
  row shuffle draws what ``rng.permutation`` draws.  A batch widens its
  ids to ``intp`` before it offsets the output rows, so int16 and int32
  ids train the same bytes.

Mini-batch SGD runs over (center, context) pairs with repeated indices
within a batch accumulated (not overwritten).  The token-by-token pair loop
the trainer must agree with — the same pair sequence under a shared window
seed, the same ranking quality end to end — is the test oracle in
``tests/oracles/word2vec.py``, next to two earlier forms of the batch loop:
the sorted segment sum, which it must equal byte for byte, and the
per-matrix update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.embeddings.sampling import AliasSampler
from repro.embeddings.vocab import IdCorpus, Vocabulary, intern_sentences
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng

logger = get_logger(__name__)

#: Minimum negative-sample draws per epoch.  Negatives are shared across a mini-batch, so with few batches per epoch
#: the model would train against almost no distinct negatives; the
#: effective batch is capped at ``ceil(n_pairs / MIN_NEGATIVE_REFRESHES)``.
#: The cap engages on any epoch with fewer than ``batch_size × 64`` pairs
#: (~33k at the default batch size) and is a no-op above that.
MIN_NEGATIVE_REFRESHES = 64

#: Center tokens per step of pair extraction.  Each step writes its centers'
#: rows of the epoch's pair block, so the position temporaries (up to
#: ``2 × window`` pairs per token) span one chunk, not the epoch.
PAIR_CHUNK_TOKENS = 4096


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, into ``out`` when given (``x``
    itself works): every step runs in place on one array."""
    # The clip keeps float32 ``exp`` (which overflows past ~88) from raising
    # or warning on saturated logits; it moves no result by more than
    # sigmoid(-20) ≈ 2e-9.
    out = np.clip(x, -20.0, 20.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def run_pair_batches(
    weights: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    batch_size: int,
    step: int,
    total_steps: int,
    learning_rate: float,
    min_learning_rate: float,
) -> int:
    """Run consecutive mini-batch SGD steps over a pair slice; returns the new step.

    ``weights`` is the ``(2V, D)`` block — rows ``[0, V)`` input vectors,
    rows ``[V, 2V)`` output vectors — and ``in`` tokens predict ``out``
    tokens: skip-gram passes (centers, contexts), pairwise CBOW (contexts,
    centers).  ``negatives`` holds one row of K ids per batch: every pair
    of a batch trains against the same K alias-sampled negatives.  The
    learning rate decays on the *global* step, so a shard starting at pair
    offset ``p`` passes ``step = epoch_start + p`` and reproduces exactly
    the rates the serial loop would use for those batches.

    A batch gathers ``rows = [in ids | V + out ids | V + negatives]`` once,
    passes one ``(B, 1 + K)`` logit block (column 0 the positive pair, the
    rest the negatives) through one in-place sigmoid, and writes its
    ``2B + K`` gradient rows.  One product of a one-hot CSC matrix with them
    adds them back, accumulating every repeated row — a token repeated
    within the batch, a negative drawn twice, a negative that is also a
    positive output — without a sort.  The matrix has ``W = 2 min(batch_size,
    n_pairs) + K`` columns, one entry each, and is built once per call; each
    batch re-points its entries (``indices``) in place.  It takes one of two
    forms:

    * **dense**, when the block has fewer rows than a batch gathers
      (``2V + 1 <= W``): ``2V + 1`` rows, column ``j`` at block row
      ``rows[j]``, and ``weights += (one_hot @ grad)[:2V]``;
    * **sparse**, on taller blocks: ``slot[rows] = positions`` leaves the
      batch's distinct rows at the positions that kept their own slot,
      ``slot[distinct] = 0, 1, ...`` numbers them, column ``j`` sits at row
      ``slot[rows[j]]`` of a ``(W, W)`` matrix, and
      ``weights[distinct] += (one_hot @ grad)[:n_distinct]``.

    A partial last batch points its unused columns (stale gradient rows) at
    a product row it never reads: the spare row ``2V``, or row ``W - 1``
    (it has fewer than ``W`` distinct rows).  scipy's ``csc_matvecs`` adds
    column ``j`` into its row for ``j = 0, 1, ...`` in turn, from a zeroed
    result, so in both forms each row sums its batch positions in ascending
    order — the order of a stable sort by row — and the two forms give
    every touched row the same bits.  The dense form also adds ``+0.0`` to
    every untouched row, which changes a ``-0.0`` there to ``+0.0``, equal
    as a number.  Training writes no ``-0.0`` (a float32 sum is ``-0.0``
    only when both terms are), and a new block has random input rows and
    ``+0.0`` output rows, so a block holds one only if the caller put it
    there.

    The rule keeps the dense product no taller than the sparse one (``W``
    rows), so no input's peak memory rises.  Per batch of the perfbench
    ``fit`` shape (930 block rows, 1,029 gathered rows of width 64, ~480
    distinct; a 2-vCPU Xeon) the dense add-back takes ~31 µs against the
    sparse form's ~68 µs; at ``2V`` ≈ 3W the two are even, and at 39W the
    dense form takes ~1.4 ms.

    The ids may be any integer type (the trainer's are int16 up to 32,768
    tokens, see :func:`_id_dtype`).  ``rows`` is ``intp``: the ids widen
    before the output rows move up by ``V``, as adding ``V`` in int16 would
    wrap once ``V > 16,384``, to negative rows that numpy indexes from the
    end without a word.

    The parallel trainer's shard tasks run this same loop on a local block
    copy (:mod:`repro.parallel.trainer`).
    """
    n_pairs = int(in_ids.shape[0])
    n_rows, dim = weights.shape
    vocab_size = n_rows // 2
    n_negatives = negatives.shape[1]
    # Scratch for every batch; a partial last batch uses the heads.
    batch = min(batch_size, n_pairs)
    width = 2 * batch + n_negatives
    grad = np.empty((width, dim), dtype=weights.dtype)
    coef_block = np.empty((batch, 1 + n_negatives), dtype=weights.dtype)
    positions = np.arange(width + 1, dtype=np.int32)
    # The one-hot's rows: the block's rows plus a spare one (dense), or the
    # batch's distinct rows (sparse); see the docstring for the rule.
    dense = n_rows + 1 <= width
    slot = None if dense else np.empty(n_rows, dtype=np.int32)
    # One 1 per column (indptr 0, 1, ..., W); each batch re-points the
    # columns' rows (indices, int32 like indptr) in place.
    one_hot = sparse.csc_array(
        (np.ones(width, dtype=weights.dtype), np.zeros(width, dtype=np.int32), positions),
        shape=(n_rows + 1 if dense else width, width),
    )
    indices = one_hot.indices
    for i, start in enumerate(range(0, n_pairs, batch_size)):
        stop = min(start + batch_size, n_pairs)
        progress = min(1.0, step / max(total_steps, 1))
        lr = max(min_learning_rate, learning_rate * (1.0 - progress))
        n = stop - start
        # Widened before the output rows move up by V: int16 ids would wrap.
        rows = np.concatenate(
            (in_ids[start:stop], out_ids[start:stop], negatives[i]), dtype=np.intp
        )
        rows[n:] += vocab_size
        m = rows.size
        vecs = weights[rows]                                # (2B + K, D)
        in_vecs = vecs[:n]
        pos_vecs = vecs[n : 2 * n]
        neg_vecs = vecs[2 * n :]

        coef = coef_block[:n]                               # logits, then coefficients
        np.einsum("bd,bd->b", in_vecs, pos_vecs, out=coef[:, 0])
        np.matmul(in_vecs, neg_vecs.T, out=coef[:, 1:])
        # The loss gradient per logit is sigmoid - label (label 1 in column 0);
        # folding the step size into these (B, 1 + K) coefficients builds the
        # (rows, D) gradient blocks already scaled.
        _sigmoid(coef, out=coef)
        coef[:, 0] -= 1.0
        coef *= -lr
        g_pos = coef[:, :1]                                 # (B, 1)
        g_neg = coef[:, 1:]                                 # (B, K)
        # The negatives' share of the input rows passes through the
        # positive output rows' slice before they are written.
        np.matmul(g_neg, neg_vecs, out=grad[n : 2 * n])
        np.multiply(g_pos, pos_vecs, out=grad[:n])          # input rows
        grad[:n] += grad[n : 2 * n]
        np.multiply(g_pos, in_vecs, out=grad[n : 2 * n])    # positive output rows
        np.matmul(g_neg.T, in_vecs, out=grad[2 * n : m])    # negative output rows

        if dense:
            indices[:m] = rows
            indices[m:] = n_rows
            weights += (one_hot @ grad)[:n_rows]
        else:
            slot[rows] = positions[:m]
            distinct = rows[slot[rows] == positions[:m]]
            slot[distinct] = positions[: distinct.size]
            np.take(slot, rows, out=indices[:m])
            indices[m:] = width - 1
            weights[distinct] += (one_hot @ grad)[: distinct.size]
        step += n
    return step


def _index_dtype(n: int) -> np.dtype:
    """The dtype of positions counting up to ``n``: int32 while it fits."""
    return np.dtype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)


def _id_dtype(vocab_size: int) -> np.dtype:
    """The dtype of the ids of a ``vocab_size``-token vocabulary: the
    narrowest signed type holding the largest id and the ``-1``
    out-of-vocabulary mark, int16 up to 32,768 tokens and int32 above
    (2³¹ labels would not fit in memory)."""
    return np.dtype(np.int16 if vocab_size <= np.iinfo(np.int16).max + 1 else np.int32)


def _shuffle_rows(pairs: np.ndarray, rng: np.random.Generator) -> None:
    """Permute the rows of a C-contiguous ``(n, 2)`` block in place, as
    ``pairs[rng.permutation(n)]`` would, leaving ``rng`` where it leaves it.

    Each row is shuffled as one opaque item: 8 bytes for int32 pairs, which
    numpy swaps as one machine word, and 4 for int16 pairs, which take its
    slower generic swap (best of 15 per 248k rows on a 2-vCPU Xeon: ~6.8
    against ~4.8 ms).  ``Generator.shuffle`` makes the Fisher–Yates draws
    of ``permutation`` whatever the item size, so both orders are the same.
    """
    rng.shuffle(pairs.view(np.dtype((np.void, pairs.strides[0]))).reshape(-1))


def _corpus_ids(
    sentences: Union[Iterable[Sequence], IdCorpus], labels: Optional[Sequence[str]]
) -> Tuple[np.ndarray, np.ndarray, Sequence[str]]:
    """A corpus as ``(flat ids, lengths, labels)``; see :meth:`Word2Vec.train`."""
    is_flat = isinstance(sentences, IdCorpus)
    if labels is None:
        if is_flat:
            raise ValueError("an IdCorpus needs the labels its ids index")
        return intern_sentences(sentences)
    flat, lengths = sentences if is_flat else IdCorpus.concatenate(sentences)
    if is_flat and (lengths.sum() != flat.size or (lengths < 0).any()):
        raise ValueError("IdCorpus lengths must be >= 0 and sum to its id count")
    if flat.size and (flat.min() < 0 or flat.max() >= len(labels)):
        raise ValueError("sentence ids must index labels")
    return flat, lengths, labels


def _drop_tokens(
    flat_ids: np.ndarray, lengths: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the tokens ``keep`` marks, then drop sentences left under two
    tokens (they yield no pairs) with their surviving tokens."""
    # running[i] counts the kept tokens before token i; read at the sentence
    # bounds, it gives each sentence's count without a per-token sentence
    # index.
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    running = np.zeros(keep.size + 1, dtype=_index_dtype(keep.size))
    np.cumsum(keep, dtype=running.dtype, out=running[1:])
    kept = np.diff(running[bounds].astype(np.int64))
    del running
    sentence_ok = kept >= 2
    mask = np.repeat(sentence_ok, lengths)
    mask &= keep
    return flat_ids[mask], kept[sentence_ok]


@dataclass
class TrainingStats:
    """Throughput record of one :meth:`Word2Vec.train` call; ``epochs`` counts those with pairs."""

    pairs: int
    epochs: int
    seconds: float

    @property
    def pairs_per_sec(self) -> float:
        return self.pairs / self.seconds if self.seconds > 0 else 0.0


@dataclass
class Word2VecConfig:
    """Hyper-parameters of the Word2Vec model.

    Parameters
    ----------
    vector_size:
        Embedding dimensionality (the paper uses 300 with gensim; the
        reproduction defaults to 96 which is sufficient at our corpus sizes
        and keeps training fast on a laptop-class CPU).
    window:
        Maximum context window; the effective window of each position is
        sampled uniformly in [1, window] as in the original word2vec.
    negative:
        Number of negative samples per positive pair.
    epochs:
        Training epochs over the pair set.
    learning_rate / min_learning_rate:
        Linearly decayed SGD step size.
    sg:
        True for Skip-gram, False for CBOW.
    min_count:
        Minimum corpus frequency for a token to enter the vocabulary.
    subsample:
        Frequent-token subsampling threshold (0 disables it).
    batch_size:
        Mini-batch size for the vectorised update.  Batches accumulate raw
        per-pair gradients (word2vec semantics); keeping them moderate avoids
        over-shooting on small vocabularies where the same token repeats many
        times within a batch.  Negatives are shared per batch, so the
        effective batch is capped at ``ceil(n_pairs / MIN_NEGATIVE_REFRESHES)``
        on small corpora (below ``batch_size × 64`` pairs per epoch) to keep
        the draws diverse.
    """

    vector_size: int = 96
    window: int = 3
    negative: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0001
    sg: bool = True
    min_count: int = 1
    subsample: float = 0.0
    batch_size: int = 512

    def __post_init__(self) -> None:
        if self.vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative < 1:
            raise ValueError("negative must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # Written so that NaN fails each check: a NaN or infinite rate
        # trains NaN weights, and a NaN subsample would turn it off.
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.min_learning_rate < np.inf:
            raise ValueError("min_learning_rate must be >= 0 and finite")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not self.subsample >= 0:
            raise ValueError("subsample must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class Word2Vec:
    """Skip-gram / CBOW with negative sampling."""

    def __init__(self, config: Optional[Word2VecConfig] = None, seed=None, parallel=None):
        self.config = config or Word2VecConfig()
        # A repro.parallel.ParallelConfig (or None, one shard): a plan of
        # more than one shard trains each epoch as shard tasks (see
        # repro.parallel.trainer).
        self.parallel = parallel
        self._rng = ensure_rng(seed)
        self.vocab: Optional[Vocabulary] = None
        self.stats: Optional[TrainingStats] = None
        # After training, both are views of one stacked block (_new_block).
        self._input_vectors: Optional[np.ndarray] = None   # W (input / "in" vectors)
        self._output_vectors: Optional[np.ndarray] = None  # C (output / "out" vectors)

    # ------------------------------------------------------------------
    # Training
    def train(
        self,
        sentences: Union[Iterable[Sequence], IdCorpus],
        labels: Optional[Sequence[str]] = None,
    ) -> "Word2Vec":
        """Train the model on ``sentences`` and return ``self``.

        ``sentences`` hold token strings, or — with ``labels`` — integer ids
        into ``labels``, one sequence per sentence or all of them back to
        back in an :class:`~repro.embeddings.vocab.IdCorpus` (the pipeline
        joins the walk engine's node-id walks into one, with the graph's
        labels).  The vocabulary orders tokens by
        ``(-count, label)`` and drops those under ``min_count``; sentences
        left with fewer than two tokens yield no pairs.
        """
        self.stats = self._fit_corpus(sentences, labels, base=None)
        logger.debug(
            "word2vec: %d pairs in %.3fs (%.0f pairs/s)",
            self.stats.pairs,
            self.stats.seconds,
            self.stats.pairs_per_sec,
        )
        return self

    # ------------------------------------------------------------------
    # Warm-start fine-tuning (incremental fit; see repro.serving)
    def fine_tune(
        self,
        sentences: Union[Iterable[Sequence], IdCorpus],
        labels: Optional[Sequence[str]] = None,
    ) -> TrainingStats:
        """Continue training an already-trained model on a delta corpus.

        ``sentences`` and ``labels`` are read as in :meth:`train`.  The
        vocabulary grows: unseen tokens are appended (existing ids — and
        therefore existing embedding rows — never move) and receive freshly
        initialised input rows / zero output rows, then training runs the
        configured epochs over the delta sentences only.  Existing rows that
        appear in the delta are updated; everything else is untouched,
        which is what makes a small delta orders of magnitude cheaper than
        retraining.

        Training runs on a new block copied from the current matrices (see
        :meth:`_new_block`), so read-only memory maps of a loaded index are
        never written.  Returns (and stores in :attr:`stats`) the
        fine-tuning throughput record.  Raises :class:`RuntimeError`, with
        the model unchanged, when the model is untrained or has no output
        vectors (an index written without its ``w2v_output`` array).
        """
        if self.vocab is None or self._input_vectors is None:
            raise RuntimeError("model is not trained")
        if self._output_vectors is None:
            raise RuntimeError(
                "model has no output vectors (the index holds no 'w2v_output'); "
                "fine-tuning needs them"
            )
        self.stats = self._fit_corpus(sentences, labels, base=self.vocab)
        return self.stats

    def _fit_corpus(
        self,
        sentences: Union[Iterable[Sequence], IdCorpus],
        labels: Optional[Sequence[str]],
        base: Optional[Vocabulary],
    ) -> TrainingStats:
        """Build the vocabulary, or grow ``base``, then train.

        A build raises :class:`ValueError` on a corpus that yields no
        training pair in any epoch; growth returns a zero record instead.
        """
        flat, lengths, labels = _corpus_ids(sentences, labels)
        if flat.size == 0:
            if base is None:
                raise ValueError("cannot train on an empty corpus")
            return TrainingStats(pairs=0, epochs=0, seconds=0.0)
        counts = np.bincount(flat, minlength=len(labels))
        self.vocab = Vocabulary.from_counts(
            labels, counts, min_count=self.config.min_count, base=base
        )
        if len(self.vocab) == 0:
            raise ValueError("vocabulary is empty after applying min_count")
        flat, lengths = self._encode(flat, lengths, labels, counts)
        if lengths.size == 0 and base is None:
            raise ValueError("no sentence has two or more in-vocabulary tokens")
        weights = self._new_block(kept=0 if base is None else len(base))
        if lengths.size == 0:
            return TrainingStats(pairs=0, epochs=0, seconds=0.0)
        subsample = self.config.subsample
        keep_probs = (
            self.vocab.subsample_keep_probabilities(subsample) if subsample > 0 else None
        )
        start = time.perf_counter()
        pairs, epochs = self._train_vectorized(weights, flat, lengths, keep_probs)
        elapsed = time.perf_counter() - start
        if epochs == 0 and base is None:  # subsampling left no pair in any epoch
            raise ValueError("no training pairs could be extracted")
        return TrainingStats(pairs=pairs, epochs=epochs, seconds=elapsed)

    def _encode(
        self, flat: np.ndarray, lengths: np.ndarray, labels: Sequence[str], counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corpus ids as vocabulary ids in :func:`_id_dtype` (int16 up to
        32,768 tokens), without out-of-vocabulary tokens and sentences left
        under two tokens; only labels that occur are looked up."""
        present = np.flatnonzero(counts)
        to_vocab = np.full(len(labels), -1, dtype=_id_dtype(len(self.vocab)))
        to_vocab[present] = self.vocab.ids_of([labels[i] for i in present.tolist()])
        ids = to_vocab[flat]
        return _drop_tokens(ids, lengths, ids >= 0)

    def _new_block(self, kept: int) -> np.ndarray:
        """A new float32 ``(2V, D)`` training block for the current vocabulary.

        Rows ``[0, V)`` hold the input vectors and rows ``[V, 2V)`` the
        output vectors; :attr:`_input_vectors` and :attr:`_output_vectors`
        become views of the two halves.  The first ``kept`` rows of each
        half are copied from the current matrices; the other tokens get
        random input rows and zero output rows.
        """
        vocab_size = len(self.vocab)
        dim = self.config.vector_size
        weights = np.zeros((2 * vocab_size, dim), dtype=np.float32)
        if kept:
            weights[:kept] = self._input_vectors
            weights[vocab_size : vocab_size + kept] = self._output_vectors
        # Drawn in float64, trained in float32.
        weights[kept:vocab_size] = (
            self._rng.random((vocab_size - kept, dim), dtype=np.float64) - 0.5
        ) / dim
        self._input_vectors = weights[:vocab_size]
        self._output_vectors = weights[vocab_size:]
        return weights

    # ------------------------------------------------------------------
    # Epoch loop: per-epoch numpy extraction, alias negatives, one-hot
    # batch sums
    def _train_vectorized(
        self,
        weights: np.ndarray,
        flat_ids: np.ndarray,
        lengths: np.ndarray,
        keep_probs: Optional[np.ndarray],
    ) -> Tuple[int, int]:
        """Train the stacked block ``weights`` in place on the encoded corpus
        (ids in :func:`_id_dtype` back to back, sentence ``lengths`` >= 2);
        returns the pair steps and the number of epochs that had pairs.

        One epoch's ``(n_pairs, 2)`` pair block, in the ids' dtype, is alive
        at a time.  Its rows are permuted in place (:func:`_shuffle_rows`),
        which draws ``rng.permutation``'s Fisher–Yates swaps, so the pairs
        train as an int64 trainer's gathered copies would.
        """
        # Imported lazily: repro.parallel.trainer imports this module.
        from repro.parallel import ParallelConfig, WorkerPool
        from repro.parallel.trainer import run_epoch

        sampler = AliasSampler(self.vocab.negative_sampling_distribution())
        step = 0
        total_steps = 0
        trained = 0
        # One pool serves every epoch; it starts no process unless the
        # plan has more than one shard and more than one worker.
        with WorkerPool(self.parallel or ParallelConfig(), label="word2vec") as pool:
            for epoch in range(self.config.epochs):
                pairs = self._extract_pairs_vectorized(flat_ids, lengths, keep_probs)
                n_pairs = len(pairs)
                if n_pairs == 0:
                    continue  # an unlucky subsampling epoch; windows resample next epoch
                if trained == 0:
                    # Windows resample per epoch so later epochs differ slightly
                    # in pair count; the first epoch with pairs anchors the decay.
                    total_steps = (self.config.epochs - epoch) * n_pairs
                _shuffle_rows(pairs, self._rng)
                batch_size = min(
                    self.config.batch_size,
                    max(1, -(-n_pairs // MIN_NEGATIVE_REFRESHES)),
                )
                # One alias draw covers every batch of the epoch.
                n_batches = -(-n_pairs // batch_size)
                negatives = sampler.sample(
                    self._rng, size=(n_batches, self.config.negative)
                )
                # The block's columns, (center, context); pairwise CBOW
                # reverses them: the context token predicts the center.
                in_ids, out_ids = pairs.T if self.config.sg else pairs.T[::-1]
                # All RNG consumption (windows, permutation, negatives)
                # happened above, in the parent; the epoch runner is
                # RNG-free, and with one shard it is the serial
                # run_pair_batches in place.
                step = run_epoch(
                    pool,
                    weights,
                    in_ids,
                    out_ids,
                    negatives,
                    batch_size,
                    step,
                    total_steps,
                    self.config.learning_rate,
                    self.config.min_learning_rate,
                )
                logger.debug("word2vec epoch %d/%d done", epoch + 1, self.config.epochs)
                del pairs, in_ids, out_ids, negatives  # before the next extraction
                trained += 1
        return step, trained

    def _extract_pairs_vectorized(
        self,
        flat_ids: np.ndarray,
        lengths: np.ndarray,
        keep_probs: Optional[np.ndarray],
    ) -> np.ndarray:
        """One epoch's (center, context) pairs from the flattened corpus, as
        a C-contiguous ``(n_pairs, 2)`` block in the dtype of ``flat_ids``:
        column 0 the centers, column 1 their contexts.

        With subsampling off this emits, for the same rng state, exactly the
        pair sequence of a per-sentence loop that draws each sentence's
        windows in turn and enumerates every position's context range left
        to right: the flat ``rng.integers`` draw equals those chunked draws.
        The rows are written :data:`PAIR_CHUNK_TOKENS` centers at a time.
        """
        if keep_probs is not None:
            keep = self._rng.random(flat_ids.size) < keep_probs[flat_ids]
            flat_ids, lengths = _drop_tokens(flat_ids, lengths, keep)
            del keep
        n, window = flat_ids.size, self.config.window
        if n == 0:
            return np.empty((0, 2), dtype=flat_ids.dtype)

        token_dtype = _index_dtype(n + window)  # a position + window + 1 <= n + window
        # Drawn in int64 (an int32 draw is another stream), then narrowed.
        reduced = self._rng.integers(1, window + 1, size=n).astype(token_dtype)
        lengths = lengths.astype(token_dtype, copy=False)
        positions = np.arange(n, dtype=token_dtype)
        ends = np.cumsum(lengths, dtype=token_dtype)
        # Each token's context range [lo, lo + counts], clipped to its
        # sentence, holds its counts contexts and itself.
        lo = np.repeat(ends - lengths, lengths)
        np.maximum(lo, positions - reduced, out=lo)
        counts = np.repeat(ends, lengths)
        np.minimum(counts, positions + reduced + 1, out=counts)
        del ends, reduced, positions
        counts -= lo
        counts -= 1

        total = int(counts.sum())
        pairs = np.empty((total, 2), dtype=flat_ids.dtype)
        # A chunk's positions: token positions and pair offsets.
        index_dtype = np.promote_types(token_dtype, _index_dtype(total))
        start = 0
        for first in range(0, n, PAIR_CHUNK_TOKENS):
            last = min(first + PAIR_CHUNK_TOKENS, n)
            chunk_counts = counts[first:last]
            # Pair j of a run takes position lo + j = its offset in the
            # chunk + (lo - the run's offset), and positions at or past the
            # center shift by one to skip it.
            shift = np.cumsum(chunk_counts, dtype=index_dtype)
            stop = start + int(shift[-1])
            shift -= chunk_counts
            np.subtract(lo[first:last], shift, out=shift)
            ctx_pos = np.repeat(shift, chunk_counts)
            ctx_pos += np.arange(stop - start, dtype=index_dtype)
            center_pos = np.repeat(np.arange(first, last, dtype=index_dtype), chunk_counts)
            ctx_pos += ctx_pos >= center_pos
            pairs[start:stop, 0] = flat_ids[center_pos]
            del center_pos
            pairs[start:stop, 1] = flat_ids[ctx_pos]
            start = stop
        return pairs

    # ------------------------------------------------------------------
    # Lookup
    def __contains__(self, token: str) -> bool:
        return self.vocab is not None and token in self.vocab

    def vector(self, token: str) -> Optional[np.ndarray]:
        """The input vector of ``token``, or None when out of vocabulary."""
        if self.vocab is None or self._input_vectors is None:
            raise RuntimeError("model is not trained")
        idx = self.vocab.id_of(token)
        if idx is None:
            return None
        return self._input_vectors[idx]

    def embedding_matrix(self) -> np.ndarray:
        if self._input_vectors is None:
            raise RuntimeError("model is not trained")
        return self._input_vectors
