"""Word2Vec (Skip-gram and CBOW) with negative sampling, on numpy.

This is the embedding generator of Algorithm 4: the random-walk sentences
are fed to Word2Vec and the resulting vectors for metadata-node labels are
the document representations used for matching.  The paper uses Skip-gram
with window 3 for text-to-data tasks and CBOW with window 15 for text-only
tasks; both variants are implemented.

Training is vectorised end to end:

* Pair extraction is fully numpy: sentences are flattened into one id
  array with per-sentence offsets, the per-position reduced windows of a
  whole epoch come from a single ``rng.integers`` draw, and the (center,
  context) pairs fall out of vectorised offset arithmetic.  Windows are
  resampled every epoch, as in the original word2vec implementation.
* Negatives come from a precomputed alias table
  (:class:`~repro.embeddings.sampling.AliasSampler`) — one O(1)-per-draw
  call per epoch instead of per-batch ``rng.choice(p=...)`` with its
  O(vocab) cumulative-distribution rebuild — and are *shared across each
  mini-batch* (drawn per batch, not per pair), which turns the whole
  negative side of the update into three small dense matmuls with no
  scatter at all.
* The remaining (center and positive-context) gradients are accumulated
  through sorted-index segment sums (a one-hot CSR product,
  :func:`segment_scatter_add`) instead of the slow buffered ``np.add.at``,
  and the model trains in float32 (as gensim does), halving memory traffic.

Mini-batch SGD runs over (center, context) pairs with repeated indices
within a batch accumulated (not overwritten).  The token-by-token pair loop
the trainer must agree with — the same pair sequence under a shared window
seed, the same ranking quality end to end — is the test oracle in
``tests/oracles/word2vec.py``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.embeddings.sampling import AliasSampler
from repro.embeddings.vocab import Vocabulary
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
    return 1.0 / (1.0 + np.exp(-np.clip(x, -20.0, 20.0)))


def segment_scatter_add(matrix: np.ndarray, indices: np.ndarray, updates: np.ndarray) -> None:
    """``matrix[indices] += updates`` with repeated indices accumulated.

    Sorts the indices once, then sums each run of equal indices in a single
    SIMD-friendly pass — a one-hot CSR matrix (runs × batch) multiplied
    against the update block — and applies one plain fancy-index add per
    unique index.  Both the buffered ``np.add.at`` and per-segment
    ``np.add.reduceat`` walk the segments row by row in C loops; the sparse
    product is ~3× faster at Word2Vec's (batch, dim) block shapes.
    """
    if indices.size == 0:
        return
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    boundary = np.empty(sorted_idx.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    seg_starts = np.flatnonzero(boundary)
    indptr = np.concatenate((seg_starts, [sorted_idx.size]))
    one_hot = sparse.csr_matrix(
        (np.ones(sorted_idx.size, dtype=updates.dtype), order, indptr),
        shape=(seg_starts.size, sorted_idx.size),
    )
    matrix[sorted_idx[seg_starts]] += one_hot @ updates


def pair_update(
    w_in: np.ndarray,
    w_out: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    lr: float,
) -> None:
    """One mini-batch SGD step: ``in`` tokens predict ``out`` tokens.

    Skip-gram passes (centers, contexts); pairwise CBOW passes (contexts,
    centers).  ``negatives`` holds the batch's shared negative ids (shape
    ``(K,)``): every pair of the batch is trained against the same K
    alias-sampled negatives, so the negative side reduces to three dense
    matmuls — score ``in_vecs @ neg_vecs.T``, input gradient
    ``g_neg @ neg_vecs``, output gradient ``g_neg.T @ in_vecs`` — with no
    per-pair scatter.  Positive-side gradients accumulate through
    :func:`segment_scatter_add`.

    A module-level function (not a method) so the parallel trainer's worker
    processes run the exact same update against local matrix copies — see
    :mod:`repro.parallel.trainer`.
    """
    in_vecs = w_in[in_ids]                          # (B, D)
    pos_vecs = w_out[out_ids]                       # (B, D)
    neg_vecs = w_out[negatives]                     # (K, D)

    pos_scores = _sigmoid(np.einsum("bd,bd->b", in_vecs, pos_vecs))
    neg_scores = _sigmoid(in_vecs @ neg_vecs.T)     # (B, K)

    # Fold the step size into the (small) coefficient arrays so the
    # (rows, D) gradient blocks are built already scaled.
    g_pos = (pos_scores - 1.0) * (-lr)              # (B,)
    g_neg = neg_scores * (-lr)                      # (B, K)

    grad_in = g_pos[:, None] * pos_vecs
    grad_in += g_neg @ neg_vecs                     # (B, K) @ (K, D)
    segment_scatter_add(w_in, in_ids, grad_in)
    segment_scatter_add(w_out, out_ids, g_pos[:, None] * in_vecs)
    # K rows only; np.add.at keeps duplicate negative draws accumulated.
    np.add.at(w_out, negatives, g_neg.T @ in_vecs)


def run_pair_batches(
    w_in: np.ndarray,
    w_out: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    batch_size: int,
    step: int,
    total_steps: int,
    learning_rate: float,
    min_learning_rate: float,
) -> int:
    """Run consecutive mini-batches over a pair slice; returns the new step.

    ``negatives`` holds one row per batch of the slice; the learning rate
    decays on the *global* step, so a shard starting at pair offset ``p``
    passes ``step = epoch_start + p`` and reproduces exactly the rates the
    serial loop would use for those batches.
    """
    n_pairs = int(in_ids.shape[0])
    for i, start in enumerate(range(0, n_pairs, batch_size)):
        stop = min(start + batch_size, n_pairs)
        progress = min(1.0, step / max(total_steps, 1))
        lr = max(min_learning_rate, learning_rate * (1.0 - progress))
        pair_update(w_in, w_out, in_ids[start:stop], out_ids[start:stop], negatives[i], lr)
        step += stop - start
    return step


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
        # A repro.parallel.ParallelConfig (or None): when it enables the
        # word2vec stage with a multi-shard plan, training shards each epoch
        # across workers (see repro.parallel.trainer).
        self.parallel = parallel
        self._rng = ensure_rng(seed)
        self.vocab: Optional[Vocabulary] = None
        self.stats: Optional[TrainingStats] = None
        self._input_vectors: Optional[np.ndarray] = None   # W (input / "in" vectors)
        self._output_vectors: Optional[np.ndarray] = None  # C (output / "out" vectors)

    # ------------------------------------------------------------------
    # Training
    def train(self, sentences: Sequence[Sequence[str]]) -> "Word2Vec":
        """Train the model on tokenised ``sentences`` and return ``self``."""
        sentences = [list(s) for s in sentences if s]
        if not sentences:
            raise ValueError("cannot train on an empty corpus")
        self.vocab = Vocabulary.from_sentences(sentences, min_count=self.config.min_count)
        if len(self.vocab) == 0:
            raise ValueError("vocabulary is empty after applying min_count")

        encoded = [self.vocab.encode(s) for s in sentences]
        encoded = [s for s in encoded if len(s) >= 2]
        if not encoded:
            raise ValueError("no sentence has two or more in-vocabulary tokens")

        dim = self.config.vector_size
        vocab_size = len(self.vocab)
        # Drawn in float64, trained in float32.
        self._input_vectors = (
            (self._rng.random((vocab_size, dim), dtype=np.float64) - 0.5) / dim
        ).astype(np.float32)
        self._output_vectors = np.zeros((vocab_size, dim), dtype=np.float32)

        keep_probs = (
            self.vocab.subsample_keep_probabilities(self.config.subsample)
            if self.config.subsample > 0
            else None
        )

        start = time.perf_counter()
        pairs = self._train_vectorized(encoded, keep_probs)
        elapsed = time.perf_counter() - start
        self.stats = TrainingStats(pairs=pairs, epochs=self.config.epochs, seconds=elapsed)
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
        sentences: Sequence[Sequence[str]],
        epochs: Optional[int] = None,
        learning_rate: Optional[float] = None,
    ) -> TrainingStats:
        """Continue training an already-trained model on a delta corpus.

        The vocabulary grows in place: unseen tokens of ``sentences`` are
        appended (existing ids — and therefore existing embedding rows —
        never move) and receive freshly initialised input rows / zero output
        rows, then training runs ``epochs`` epochs over the delta sentences
        only.  Existing rows that appear in the delta are
        updated; everything else is untouched, which is what makes a small
        delta orders of magnitude cheaper than retraining.

        Matrices loaded as read-only memory maps are copied to writable
        arrays on the first call.  Returns (and stores in :attr:`stats`)
        the fine-tuning throughput record.
        """
        if self.vocab is None or self._input_vectors is None:
            raise RuntimeError("model is not trained")
        sentences = [list(s) for s in sentences if s]
        config = replace(
            self.config,
            epochs=epochs if epochs is not None else self.config.epochs,
            learning_rate=(
                learning_rate if learning_rate is not None else self.config.learning_rate
            ),
        )
        if not sentences:
            return TrainingStats(pairs=0, epochs=0, seconds=0.0)

        old_size = len(self.vocab)
        self.vocab.extend_from_sentences(sentences)
        dim = self.config.vector_size
        w_in = self._input_vectors
        w_out = self._output_vectors
        if not w_in.flags.writeable:  # mmap-loaded index: copy on first tune
            w_in = np.array(w_in)
        if not w_out.flags.writeable:
            w_out = np.array(w_out)
        grown = len(self.vocab) - old_size
        if grown:
            fresh = ((self._rng.random((grown, dim)) - 0.5) / dim).astype(w_in.dtype)
            w_in = np.concatenate([w_in, fresh])
            w_out = np.concatenate([w_out, np.zeros((grown, dim), dtype=w_out.dtype)])
        self._input_vectors = w_in
        self._output_vectors = w_out

        encoded = [self.vocab.encode(s) for s in sentences]
        encoded = [s for s in encoded if len(s) >= 2]
        if not encoded:
            self.stats = TrainingStats(pairs=0, epochs=0, seconds=0.0)
            return self.stats
        keep_probs = (
            self.vocab.subsample_keep_probabilities(config.subsample)
            if config.subsample > 0
            else None
        )
        original_config = self.config
        self.config = config
        try:
            start = time.perf_counter()
            pairs = self._train_vectorized(encoded, keep_probs)
            elapsed = time.perf_counter() - start
        finally:
            self.config = original_config
        self.stats = TrainingStats(pairs=pairs, epochs=config.epochs, seconds=elapsed)
        return self.stats

    # ------------------------------------------------------------------
    # Epoch loop: per-epoch numpy extraction, alias negatives, segment-sum
    # scatter
    def _shard_trainer(self):
        """The sharded epoch runner, when the parallel layer enables it."""
        parallel = self.parallel
        if (
            parallel is None
            or not parallel.stage_enabled("word2vec")
            or parallel.shards <= 1
        ):
            return None
        from repro.parallel.trainer import EpochShardTrainer

        return EpochShardTrainer(parallel)

    def _train_vectorized(
        self, encoded: List[List[int]], keep_probs: Optional[np.ndarray]
    ) -> int:
        flat_ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
        lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
        sampler = AliasSampler(self.vocab.negative_sampling_distribution())

        step = 0
        total_steps = 0
        with ExitStack() as stack:
            shard_trainer = self._shard_trainer()
            if shard_trainer is not None:
                stack.enter_context(shard_trainer)
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
                # happened above, in the parent, exactly as in the serial
                # path — the epoch runners below are RNG-free.
                if shard_trainer is not None:
                    step = shard_trainer.run_epoch(
                        self._input_vectors,
                        self._output_vectors,
                        in_ids,
                        out_ids,
                        negatives,
                        batch_size,
                        step,
                        total_steps,
                        self.config.learning_rate,
                        self.config.min_learning_rate,
                    )
                else:
                    step = run_pair_batches(
                        self._input_vectors,
                        self._output_vectors,
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
            starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
            )
            kept_per_sentence = np.add.reduceat(keep.astype(np.int64), starts)
            # Sentences reduced below two tokens yield no pairs; drop their
            # surviving tokens as well so the offsets stay consistent.
            sentence_ok = kept_per_sentence >= 2
            token_sentence = np.repeat(np.arange(lengths.size), lengths)
            flat_ids = flat_ids[keep & sentence_ok[token_sentence]]
            lengths = kept_per_sentence[sentence_ok]
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
        run_starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        ctx_pos = np.repeat(lo, counts) + within
        # Positions at or past the center shift by one to skip it.
        ctx_pos += ctx_pos >= np.repeat(positions, counts)

        centers = np.repeat(flat_ids, counts)
        contexts = flat_ids[ctx_pos]
        return centers, contexts

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

    def vectors_for(self, tokens: Iterable[str]) -> Dict[str, np.ndarray]:
        """Vectors for all in-vocabulary tokens of ``tokens``."""
        result: Dict[str, np.ndarray] = {}
        for token in tokens:
            vec = self.vector(token)
            if vec is not None:
                result[token] = vec
        return result

    def embedding_matrix(self) -> np.ndarray:
        if self._input_vectors is None:
            raise RuntimeError("model is not trained")
        return self._input_vectors

    def mean_vector(self, tokens: Sequence[str]) -> Optional[np.ndarray]:
        """Mean of the vectors of the in-vocabulary ``tokens`` (or None)."""
        vecs = [self.vector(t) for t in tokens]
        vecs = [v for v in vecs if v is not None]
        if not vecs:
            return None
        return np.mean(np.stack(vecs), axis=0)
