"""Reference Word2Vec: the label-path encoding and the token-by-token pair loop.

:func:`encode_reference` and :func:`grow_reference` are how the library
once turned label sentences into training ids: a ``Counter`` over the
tokens, a ``(-count, token)`` sort, one ``encode`` per sentence, and the
sentences under two tokens dropped.  Word2Vec now counts node ids with
``np.bincount`` and encodes the whole corpus in one gather; it must give
the same vocabulary, counts and flat ids.

Pairs are extracted once with one window draw per sentence and then frozen
across epochs; negatives are drawn per pair with
``rng.choice(..., p=neg_dist)``; updates scatter through ``np.add.at``; the
model trains in float64.

:func:`train_reference` has the signature of
``Word2Vec._train_vectorized``, so a test can swap it in with
``monkeypatch.setattr(Word2Vec, "_train_vectorized", train_reference)``
and run the whole pipeline on the oracle.  Under a shared window seed,
:func:`extract_pairs` emits exactly the pair sequence of
``Word2Vec._extract_pairs_vectorized``.

Two earlier forms of the library's mini-batch loop, given the same batches:

* :func:`run_pair_batches_sorted` is the fused update on the stacked block
  with a sorted segment sum (:func:`segment_scatter_add`): a stable argsort
  of the batch's rows and a one-hot CSR built per batch.  The sort-free
  ``run_pair_batches`` must equal it byte for byte.
* :func:`run_pair_batches_per_matrix` runs on separate input and output
  matrices: three gathers, two sigmoid passes, two segment sums and an
  ``np.add.at`` for the shared negatives.  It agrees with the fused loop up
  to float32 summation order.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.embeddings.word2vec import Word2Vec, _sigmoid


def _encode(
    tokens: List[str], sentences: List[List[str]]
) -> List[List[int]]:
    """Per-sentence encode; drops out-of-vocabulary tokens, then short sentences."""
    token_to_id = {token: i for i, token in enumerate(tokens)}
    encoded = [[token_to_id[t] for t in s if t in token_to_id] for s in sentences]
    return [e for e in encoded if len(e) >= 2]


def encode_reference(
    sentences: Iterable[Sequence[str]], min_count: int = 1
) -> Tuple[List[str], List[int], List[List[int]]]:
    """``(tokens, counts, encoded sentences)`` of a fresh vocabulary."""
    sentences = [list(s) for s in sentences if s]
    counter: Counter = Counter()
    for sentence in sentences:
        counter.update(sentence)
    kept = [
        (token, count)
        for token, count in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        if count >= min_count
    ]
    tokens = [token for token, _ in kept]
    return tokens, [count for _, count in kept], _encode(tokens, sentences)


def grow_reference(
    tokens: List[str], counts: List[int], sentences: Iterable[Sequence[str]]
) -> Tuple[List[str], List[int], List[List[int]]]:
    """Growth by a delta corpus, without a ``min_count`` cut.

    Known tokens gain their delta counts; new ones are appended in
    ``(-count, token)`` order of their delta counts.
    """
    sentences = [list(s) for s in sentences if s]
    tokens, counts = list(tokens), list(counts)
    index = {token: i for i, token in enumerate(tokens)}
    counter: Counter = Counter()
    for sentence in sentences:
        counter.update(sentence)
    for token, count in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])):
        if token in index:
            counts[index[token]] += count
        else:
            index[token] = len(tokens)
            tokens.append(token)
            counts.append(count)
    return tokens, counts, _encode(tokens, sentences)


def train_reference(
    model: Word2Vec,
    weights: np.ndarray,
    flat_ids: np.ndarray,
    lengths: np.ndarray,
    keep_probs: Optional[np.ndarray],
) -> Tuple[int, int]:
    """Train ``model`` in place on the encoded corpus; returns the pair steps
    and the epochs trained (none without a pair).

    ``weights`` (the library's float32 training block) is left alone: the
    oracle trains float64 copies of its two halves.  The flat ids are split
    back into per-sentence lists at ``lengths``.
    """
    encoded = [s.tolist() for s in np.split(flat_ids, np.cumsum(lengths)[:-1])]
    model._input_vectors = model._input_vectors.astype(np.float64)
    model._output_vectors = model._output_vectors.astype(np.float64)
    config = model.config
    neg_dist = model.vocab.negative_sampling_distribution()
    centers, contexts = extract_pairs(model, encoded, keep_probs)
    if centers.size == 0:
        return 0, 0

    n_pairs = centers.size
    total_steps = config.epochs * n_pairs
    step = 0
    for _epoch in range(config.epochs):
        order = model._rng.permutation(n_pairs)
        for start in range(0, n_pairs, config.batch_size):
            batch = order[start : start + config.batch_size]
            lr = _learning_rate(config, step, total_steps)
            if config.sg:
                _sg_update(model, centers[batch], contexts[batch], neg_dist, lr)
            else:
                _cbow_update(model, batch, centers, contexts, neg_dist, lr)
            step += batch.size
    return step, config.epochs


def extract_pairs(
    model: Word2Vec, encoded: List[List[int]], keep_probs: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """(center, context) id arrays with dynamic windows and subsampling."""
    centers: List[int] = []
    contexts: List[int] = []
    window = model.config.window
    for sentence in encoded:
        if keep_probs is not None:
            sentence = [t for t in sentence if model._rng.random() < keep_probs[t]]
            if len(sentence) < 2:
                continue
        length = len(sentence)
        reduced = model._rng.integers(1, window + 1, size=length)
        for pos, center in enumerate(sentence):
            w = int(reduced[pos])
            lo = max(0, pos - w)
            hi = min(length, pos + w + 1)
            for ctx_pos in range(lo, hi):
                if ctx_pos == pos:
                    continue
                centers.append(center)
                contexts.append(sentence[ctx_pos])
    return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)


def _learning_rate(config, step: int, total_steps: int) -> float:
    progress = min(1.0, step / max(total_steps, 1))
    return max(config.min_learning_rate, config.learning_rate * (1.0 - progress))


def _sg_update(model: Word2Vec, centers, contexts, neg_dist, lr) -> None:
    """Skip-gram step: each center predicts its context."""
    w_in = model._input_vectors
    w_out = model._output_vectors
    batch = centers.size
    k = model.config.negative

    negatives = model._rng.choice(len(neg_dist), size=(batch, k), p=neg_dist)
    center_vecs = w_in[centers]                     # (B, D)
    pos_vecs = w_out[contexts]                      # (B, D)
    neg_vecs = w_out[negatives]                     # (B, K, D)

    pos_scores = _sigmoid(np.einsum("bd,bd->b", center_vecs, pos_vecs))
    neg_scores = _sigmoid(np.einsum("bkd,bd->bk", neg_vecs, center_vecs))

    pos_grad = (pos_scores - 1.0)[:, None]          # (B, 1)
    neg_grad = neg_scores[:, :, None]               # (B, K, 1)

    grad_center = pos_grad * pos_vecs + np.einsum("bk,bkd->bd", neg_scores, neg_vecs)
    grad_pos = pos_grad * center_vecs
    grad_neg = neg_grad * center_vecs[:, None, :]

    np.add.at(w_in, centers, -lr * grad_center)
    np.add.at(w_out, contexts, -lr * grad_pos)
    np.add.at(w_out, negatives.reshape(-1), -lr * grad_neg.reshape(batch * k, -1))


def _cbow_update(model: Word2Vec, batch_idx, centers, contexts, neg_dist, lr) -> None:
    """CBOW treated pairwise: the context token predicts the center."""
    w_in = model._input_vectors
    w_out = model._output_vectors
    ctx = contexts[batch_idx]
    cen = centers[batch_idx]
    batch = ctx.size
    k = model.config.negative

    negatives = model._rng.choice(len(neg_dist), size=(batch, k), p=neg_dist)
    ctx_vecs = w_in[ctx]
    pos_vecs = w_out[cen]
    neg_vecs = w_out[negatives]

    pos_scores = _sigmoid(np.einsum("bd,bd->b", ctx_vecs, pos_vecs))
    neg_scores = _sigmoid(np.einsum("bkd,bd->bk", neg_vecs, ctx_vecs))

    pos_grad = (pos_scores - 1.0)[:, None]
    grad_ctx = pos_grad * pos_vecs + np.einsum("bk,bkd->bd", neg_scores, neg_vecs)
    grad_pos = pos_grad * ctx_vecs
    grad_neg = neg_scores[:, :, None] * ctx_vecs[:, None, :]

    np.add.at(w_in, ctx, -lr * grad_ctx)
    np.add.at(w_out, cen, -lr * grad_pos)
    np.add.at(w_out, negatives.reshape(-1), -lr * grad_neg.reshape(batch * k, -1))


def segment_scatter_add(matrix: np.ndarray, indices: np.ndarray, updates: np.ndarray) -> None:
    """``matrix[indices] += updates`` with repeated indices accumulated.

    ``indices`` must be non-negative.  Sorts them once (stable, on keys cast
    to the narrowest unsigned type that holds ``len(matrix) - 1``), then sums
    each run of equal indices with a one-hot CSR matrix (runs × batch)
    multiplied against the update block, and applies one fancy-index add per
    unique index.  A stable order is unique, so each run sums its rows in
    batch-position order whatever the key dtype.
    """
    if indices.size == 0:
        return
    keys = indices.astype(np.min_scalar_type(matrix.shape[0] - 1))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    seg_starts = np.flatnonzero(boundary)
    indptr = np.empty(seg_starts.size + 1, dtype=np.int32)
    indptr[:-1] = seg_starts
    indptr[-1] = sorted_keys.size
    one_hot = sparse.csr_matrix(
        (np.ones(sorted_keys.size, dtype=updates.dtype), order.astype(np.int32), indptr),
        shape=(seg_starts.size, sorted_keys.size),
    )
    matrix[sorted_keys[seg_starts]] += one_hot @ updates


def pair_update_sorted(
    weights: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    lr: float,
    grad: np.ndarray,
) -> None:
    """One mini-batch step on the stacked ``(2V, D)`` block, summed by a sort.

    The gather, the logit block, the sigmoid and the gradient rows are the
    library's; the ``2B + K`` gradient rows go back through one
    :func:`segment_scatter_add`.  ``grad`` is the caller's scratch buffer.
    """
    n = in_ids.shape[0]
    vocab_size = weights.shape[0] // 2
    rows = np.concatenate((in_ids, out_ids + vocab_size, negatives + vocab_size))
    vecs = weights[rows]                                # (2B + K, D)
    in_vecs = vecs[:n]
    pos_vecs = vecs[n : 2 * n]
    neg_vecs = vecs[2 * n :]

    logits = np.empty((n, 1 + negatives.shape[0]), dtype=weights.dtype)
    np.einsum("bd,bd->b", in_vecs, pos_vecs, out=logits[:, 0])
    np.matmul(in_vecs, neg_vecs.T, out=logits[:, 1:])
    coef = _sigmoid(logits)
    coef[:, 0] -= 1.0
    coef *= -lr
    g_pos = coef[:, :1]                                 # (B, 1)
    g_neg = coef[:, 1:]                                 # (B, K)

    grad = grad[: rows.size]
    np.multiply(g_pos, pos_vecs, out=grad[:n])          # input rows
    grad[:n] += g_neg @ neg_vecs
    np.multiply(g_pos, in_vecs, out=grad[n : 2 * n])    # positive output rows
    np.matmul(g_neg.T, in_vecs, out=grad[2 * n :])      # negative output rows
    segment_scatter_add(weights, rows, grad)


def run_pair_batches_sorted(
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
    """``run_pair_batches`` over :func:`pair_update_sorted`; returns the new step."""
    n_pairs = int(in_ids.shape[0])
    grad = np.empty(
        (2 * min(batch_size, n_pairs) + negatives.shape[1], weights.shape[1]),
        dtype=weights.dtype,
    )
    for i, start in enumerate(range(0, n_pairs, batch_size)):
        stop = min(start + batch_size, n_pairs)
        progress = min(1.0, step / max(total_steps, 1))
        lr = max(min_learning_rate, learning_rate * (1.0 - progress))
        pair_update_sorted(weights, in_ids[start:stop], out_ids[start:stop], negatives[i], lr, grad)
        step += stop - start
    return step


def pair_update_per_matrix(
    w_in: np.ndarray,
    w_out: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    lr: float,
) -> None:
    """One mini-batch step on separate matrices: ``in`` tokens predict ``out`` tokens."""
    in_vecs = w_in[in_ids]                          # (B, D)
    pos_vecs = w_out[out_ids]                       # (B, D)
    neg_vecs = w_out[negatives]                     # (K, D)

    pos_scores = _sigmoid(np.einsum("bd,bd->b", in_vecs, pos_vecs))
    neg_scores = _sigmoid(in_vecs @ neg_vecs.T)     # (B, K)

    g_pos = (pos_scores - 1.0) * (-lr)              # (B,)
    g_neg = neg_scores * (-lr)                      # (B, K)

    grad_in = g_pos[:, None] * pos_vecs
    grad_in += g_neg @ neg_vecs                     # (B, K) @ (K, D)
    segment_scatter_add(w_in, in_ids, grad_in)
    segment_scatter_add(w_out, out_ids, g_pos[:, None] * in_vecs)
    # K rows only; np.add.at keeps duplicate negative draws accumulated.
    np.add.at(w_out, negatives, g_neg.T @ in_vecs)


def run_pair_batches_per_matrix(
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
    """``run_pair_batches`` over :func:`pair_update_per_matrix`; returns the new step."""
    n_pairs = int(in_ids.shape[0])
    for i, start in enumerate(range(0, n_pairs, batch_size)):
        stop = min(start + batch_size, n_pairs)
        progress = min(1.0, step / max(total_steps, 1))
        lr = max(min_learning_rate, learning_rate * (1.0 - progress))
        pair_update_per_matrix(
            w_in, w_out, in_ids[start:stop], out_ids[start:stop], negatives[i], lr
        )
        step += stop - start
    return step
