"""Word2Vec (Skip-gram and CBOW) with negative sampling, on numpy.

This is the embedding generator of Algorithm 4: the random-walk sentences
are fed to Word2Vec and the resulting vectors for metadata-node labels are
the document representations used for matching.  The paper uses Skip-gram
with window 3 for text-to-data tasks and CBOW with window 15 for text-only
tasks; both variants are implemented.

The trainer reads integer ids, as the word2vec C tool does; labels only
look vectors up.  Node-id walks come with the labels of the graph's CSR
snapshot (``train(walks, labels=...)``) and token strings are interned to
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
  ``(B, 1 + K)`` logit block through one sigmoid, and one product of a
  one-hot CSC matrix with all its gradient rows — input, positive-output
  and negative rows alike — added to the block's distinct rows, instead of
  a sort or the slow buffered ``np.add.at``.  The one-hot is built once
  per pair slice and re-pointed in place per batch; scipy's CSC product
  adds its columns in order, so each row sums its gradient rows in batch
  order (see :func:`run_pair_batches`).

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
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.embeddings.sampling import AliasSampler
from repro.embeddings.vocab import Vocabulary, intern_sentences
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng

logger = get_logger(__name__)

#: Minimum negative-sample draws per epoch.  Negatives are shared across a mini-batch, so with few batches per epoch
#: the model would train against almost no distinct negatives; the
#: effective batch is capped at ``ceil(n_pairs / MIN_NEGATIVE_REFRESHES)``.
#: The cap engages on any epoch with fewer than ``batch_size × 64`` pairs
#: (~33k at the default batch size) and is a no-op above that.
MIN_NEGATIVE_REFRESHES = 64


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # The clip keeps float32 ``exp`` (which overflows past ~88) from raising
    # or warning on saturated logits; it moves no result by more than
    # sigmoid(-20) ≈ 2e-9.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -20.0, 20.0)))


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
    rest the negatives) through one sigmoid, and writes its ``2B + K``
    gradient rows.  One product adds them back, accumulating every repeated
    row — a token repeated within the batch, a negative drawn twice, a
    negative that is also a positive output — without a sort:

    * ``slot[rows] = positions``: the positions that kept their own slot
      hold the batch's distinct rows, and ``slot[distinct] = 0, 1, ...``
      numbers them;
    * column ``j`` of a one-hot ``(W, W)`` CSC matrix, built once per call
      with ``W = 2 min(batch_size, n_pairs) + K``, has its one entry at row
      ``slot[rows[j]]``: each batch rewrites ``indices`` in place, and one
      entry per column keeps them sorted and unique;
    * ``weights[distinct] += (one_hot @ grad)[:n_distinct]``.

    scipy's ``csc_matvecs`` adds column ``j`` into its row for ``j = 0, 1,
    ...`` in turn, so each row sums its batch positions in ascending order,
    from zero — the order of a stable sort by row — and which duplicate
    kept the slot only renumbers the product's rows.  A partial last batch
    points its unused columns (stale gradient rows) at product row
    ``W - 1``, which it never reads: it has fewer than ``W`` rows.  At
    the perfbench ``fit`` shape (1,029 rows of width 64, ~480 distinct; a
    2-vCPU Xeon) the relabel and the product take ~38 µs per batch, where a
    stable argsort and a new CSR matrix per batch took ~57 µs.

    The parallel trainer's shard tasks run this same loop on a local block
    copy (:mod:`repro.parallel.trainer`).
    """
    n_pairs = int(in_ids.shape[0])
    vocab_size = weights.shape[0] // 2
    # Scratch for every batch; a partial last batch uses the heads.
    width = 2 * min(batch_size, n_pairs) + negatives.shape[1]
    grad = np.empty((width, weights.shape[1]), dtype=weights.dtype)
    slot = np.empty(weights.shape[0], dtype=np.int32)
    positions = np.arange(width + 1, dtype=np.int32)
    # One 1 per column (indptr 0, 1, ..., W); each batch re-points the
    # columns' rows (indices, int32 like indptr) in place.
    one_hot = sparse.csc_array(
        (np.ones(width, dtype=weights.dtype), positions[:width].copy(), positions),
        shape=(width, width),
    )
    indices = one_hot.indices
    for i, start in enumerate(range(0, n_pairs, batch_size)):
        stop = min(start + batch_size, n_pairs)
        progress = min(1.0, step / max(total_steps, 1))
        lr = max(min_learning_rate, learning_rate * (1.0 - progress))
        n = stop - start
        rows = np.concatenate(
            (in_ids[start:stop], out_ids[start:stop] + vocab_size, negatives[i] + vocab_size)
        )
        m = rows.size
        vecs = weights[rows]                                # (2B + K, D)
        in_vecs = vecs[:n]
        pos_vecs = vecs[n : 2 * n]
        neg_vecs = vecs[2 * n :]

        logits = np.empty((n, 1 + negatives.shape[1]), dtype=weights.dtype)
        np.einsum("bd,bd->b", in_vecs, pos_vecs, out=logits[:, 0])
        np.matmul(in_vecs, neg_vecs.T, out=logits[:, 1:])
        # The loss gradient per logit is sigmoid - label (label 1 in column 0);
        # folding the step size into these (B, 1 + K) coefficients builds the
        # (rows, D) gradient blocks already scaled.
        coef = _sigmoid(logits)
        coef[:, 0] -= 1.0
        coef *= -lr
        g_pos = coef[:, :1]                                 # (B, 1)
        g_neg = coef[:, 1:]                                 # (B, K)
        np.multiply(g_pos, pos_vecs, out=grad[:n])          # input rows
        grad[:n] += g_neg @ neg_vecs
        np.multiply(g_pos, in_vecs, out=grad[n : 2 * n])    # positive output rows
        np.matmul(g_neg.T, in_vecs, out=grad[2 * n : m])    # negative output rows

        slot[rows] = positions[:m]
        distinct = rows[slot[rows] == positions[:m]]
        slot[distinct] = positions[: distinct.size]
        np.take(slot, rows, out=indices[:m])
        indices[m:] = width - 1
        weights[distinct] += (one_hot @ grad)[: distinct.size]
        step += n
    return step


def _corpus_ids(
    sentences: Iterable[Sequence], labels: Optional[Sequence[str]]
) -> Tuple[np.ndarray, np.ndarray, Sequence[str]]:
    """A corpus as ``(flat ids, lengths, labels)``; see :meth:`Word2Vec.train`."""
    if labels is None:
        return intern_sentences(sentences)
    sentences = list(sentences)
    lengths = np.fromiter((len(s) for s in sentences), dtype=np.int64, count=len(sentences))
    flat = np.concatenate(sentences) if sentences else np.empty(0, dtype=np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= len(labels)):
        raise ValueError("sentence ids must index labels")
    return flat, lengths, labels


def _drop_tokens(
    flat_ids: np.ndarray, lengths: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the tokens ``keep`` marks, then drop sentences left under two
    tokens (they yield no pairs) with their surviving tokens."""
    token_sentence = np.repeat(np.arange(lengths.size), lengths)
    kept = np.bincount(token_sentence[keep], minlength=lengths.size)
    sentence_ok = kept >= 2
    return flat_ids[keep & sentence_ok[token_sentence]], kept[sentence_ok]


@dataclass
class TrainingStats:
    """Throughput record of one :meth:`Word2Vec.train` call."""

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
        if not 0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")
        if self.min_learning_rate < 0:
            raise ValueError("min_learning_rate must be >= 0")
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
    def train(self, sentences: Iterable[Sequence], labels: Optional[Sequence[str]] = None) -> "Word2Vec":
        """Train the model on ``sentences`` and return ``self``.

        ``sentences`` hold token strings, or — with ``labels`` — integer ids
        into ``labels`` (the walk engine's node-id walks come with the labels
        of the graph's CSR snapshot).  The vocabulary orders tokens by
        ``(-count, label)`` and drops those under ``min_count``; sentences
        left with fewer than two tokens yield no pairs.
        """
        self.stats = self._fit_corpus(sentences, labels, self.config, base=None)
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
        sentences: Iterable[Sequence],
        labels: Optional[Sequence[str]] = None,
        epochs: Optional[int] = None,
        learning_rate: Optional[float] = None,
    ) -> TrainingStats:
        """Continue training an already-trained model on a delta corpus.

        ``sentences`` and ``labels`` are read as in :meth:`train`.  The
        vocabulary grows: unseen tokens are appended (existing ids — and
        therefore existing embedding rows — never move) and receive freshly
        initialised input rows / zero output rows, then training runs
        ``epochs`` epochs over the delta sentences only.  Existing rows that
        appear in the delta are updated; everything else is untouched,
        which is what makes a small delta orders of magnitude cheaper than
        retraining.

        Training runs on a new block copied from the current matrices (see
        :meth:`_new_block`), so read-only memory maps of a loaded index are
        never written.  Returns (and stores in :attr:`stats`) the
        fine-tuning throughput record.  Raises :class:`RuntimeError`, with
        the model unchanged, when the model is untrained or has no output
        vectors (an index saved with ``serving.include_output_vectors=False``).
        """
        if self.vocab is None or self._input_vectors is None:
            raise RuntimeError("model is not trained")
        if self._output_vectors is None:
            raise RuntimeError(
                "model has no output vectors (saved with "
                "serving.include_output_vectors=False); fine-tuning needs them"
            )
        config = replace(
            self.config,
            epochs=epochs if epochs is not None else self.config.epochs,
            learning_rate=(
                learning_rate if learning_rate is not None else self.config.learning_rate
            ),
        )
        self.stats = self._fit_corpus(sentences, labels, config, base=self.vocab)
        return self.stats

    def _fit_corpus(
        self,
        sentences: Iterable[Sequence],
        labels: Optional[Sequence[str]],
        config: Word2VecConfig,
        base: Optional[Vocabulary],
    ) -> TrainingStats:
        """Build the vocabulary, or grow ``base``, then train under ``config``.

        A build raises :class:`ValueError` on a corpus that yields no
        training sentence; growth returns a zero record instead.
        """
        flat, lengths, labels = _corpus_ids(sentences, labels)
        if flat.size == 0:
            if base is None:
                raise ValueError("cannot train on an empty corpus")
            return TrainingStats(pairs=0, epochs=0, seconds=0.0)
        counts = np.bincount(flat, minlength=len(labels))
        self.vocab = Vocabulary.from_counts(labels, counts, min_count=config.min_count, base=base)
        if len(self.vocab) == 0:
            raise ValueError("vocabulary is empty after applying min_count")
        flat, lengths = self._encode(flat, lengths, labels, counts)
        if lengths.size == 0 and base is None:
            raise ValueError("no sentence has two or more in-vocabulary tokens")
        weights = self._new_block(kept=0 if base is None else len(base))
        if lengths.size == 0:
            return TrainingStats(pairs=0, epochs=0, seconds=0.0)
        keep_probs = (
            self.vocab.subsample_keep_probabilities(config.subsample)
            if config.subsample > 0
            else None
        )
        original_config, self.config = self.config, config
        try:
            start = time.perf_counter()
            pairs = self._train_vectorized(weights, flat, lengths, keep_probs)
            elapsed = time.perf_counter() - start
        finally:
            self.config = original_config
        return TrainingStats(pairs=pairs, epochs=config.epochs, seconds=elapsed)

    def _encode(
        self, flat: np.ndarray, lengths: np.ndarray, labels: Sequence[str], counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corpus ids as vocabulary ids, without out-of-vocabulary tokens and
        sentences left under two tokens; only labels that occur are looked up."""
        present = np.flatnonzero(counts)
        to_vocab = np.full(len(labels), -1, dtype=np.int64)
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
    ) -> int:
        """Train the stacked block ``weights`` in place on the encoded corpus
        (int64 ids back to back, sentence ``lengths`` >= 2); returns the pair steps."""
        # Imported lazily: repro.parallel.trainer imports this module.
        from repro.parallel import ParallelConfig, WorkerPool
        from repro.parallel.trainer import run_epoch

        sampler = AliasSampler(self.vocab.negative_sampling_distribution())
        step = 0
        total_steps = 0
        # One pool serves every epoch; it starts no process unless the
        # plan has more than one shard and more than one worker.
        with WorkerPool(self.parallel or ParallelConfig(), label="word2vec") as pool:
            for epoch in range(self.config.epochs):
                centers, contexts = self._extract_pairs_vectorized(
                    flat_ids, lengths, keep_probs
                )
                if centers.size == 0:
                    if epoch == 0:
                        raise ValueError("no training pairs could be extracted")
                    continue  # an unlucky subsampling epoch; windows resample next epoch
                n_pairs = centers.size
                if epoch == 0:
                    # Windows resample per epoch so later epochs differ slightly
                    # in pair count; the first epoch anchors the decay schedule.
                    total_steps = self.config.epochs * n_pairs
                order = self._rng.permutation(n_pairs)
                centers = centers[order]
                contexts = contexts[order]
                batch_size = min(
                    self.config.batch_size,
                    max(1, -(-n_pairs // MIN_NEGATIVE_REFRESHES)),
                )
                # One alias draw covers every batch of the epoch.
                n_batches = -(-n_pairs // batch_size)
                negatives = sampler.sample(
                    self._rng, size=(n_batches, self.config.negative)
                )
                # Pairwise CBOW: the context token predicts the center.
                in_ids, out_ids = (
                    (centers, contexts) if self.config.sg else (contexts, centers)
                )
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
        return step

    def _extract_pairs_vectorized(
        self,
        flat_ids: np.ndarray,
        lengths: np.ndarray,
        keep_probs: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One epoch's (center, context) pairs from the flattened corpus.

        With subsampling off this emits, for the same rng state, exactly the
        pair sequence of a per-sentence loop that draws each sentence's
        windows in turn and enumerates every position's context range left
        to right: the flat ``rng.integers`` draw equals those chunked draws.
        """
        if keep_probs is not None:
            keep = self._rng.random(flat_ids.size) < keep_probs[flat_ids]
            flat_ids, lengths = _drop_tokens(flat_ids, lengths, keep)
        if flat_ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty

        sent_ids = np.repeat(np.arange(lengths.size), lengths)
        sent_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
        )
        positions = np.arange(flat_ids.size, dtype=np.int64)
        lo_bound = sent_starts[sent_ids]
        hi_bound = lo_bound + lengths[sent_ids]

        reduced = self._rng.integers(1, self.config.window + 1, size=flat_ids.size)
        lo = np.maximum(lo_bound, positions - reduced)
        hi = np.minimum(hi_bound, positions + reduced + 1)
        counts = hi - lo - 1  # the center itself is excluded

        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # One repeat gives each pair its center's position; pair j of a
        # center takes position lo + j, and positions at or past the center
        # shift by one to skip it.
        center_pos = np.repeat(positions, counts)
        run_starts = np.cumsum(counts) - counts
        ctx_pos = np.arange(total, dtype=np.int64) + (lo - run_starts)[center_pos]
        ctx_pos += ctx_pos >= center_pos
        return flat_ids[center_pos], flat_ids[ctx_pos]

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
