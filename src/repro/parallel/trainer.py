"""Epoch-sharded Word2Vec training over a shared-memory model block.

Hogwild-style data parallelism, made deterministic: each epoch's shuffled
pair sequence is split into contiguous *batch* ranges, every shard runs
:func:`repro.embeddings.word2vec.run_pair_batches` on a private copy of
the epoch-start ``(2V, D)`` block (input and output vectors stacked), and
the parent applies the per-shard deltas (``local - snapshot``) in fixed
shard order.  All randomness — window sampling, the permutation, the alias
negatives — is consumed in the parent before sharding (see
:meth:`repro.embeddings.word2vec.Word2Vec._train_vectorized`), so the
result depends only on the shard count:

* An epoch of one shard (one shard in the plan, or one batch in the
  epoch) runs :func:`repro.embeddings.word2vec.run_pair_batches` in place —
  bit-identical to the serial trainer (the delta detour is avoided
  deliberately: ``a + (b - a) != b`` in float32).
* More shards run one :func:`_train_shard_task` each through the
  :class:`~repro.parallel.shm.WorkerPool` — in this process at
  ``num_workers <= 1``, in worker processes above that — and the deltas
  are applied in shard order, so the result is the same at **any** worker
  count.

The learning rate decays on the global step, so each shard passes the step
its first pair would have had in the serial loop — the per-batch rates are
exactly the serial schedule's.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.word2vec import run_pair_batches
from repro.parallel.shm import ShmArena, SharedArray, WorkerPool, attached
from repro.parallel.walks import shard_ranges


def _train_shard_task(
    weights_d: SharedArray,
    pairs_d: SharedArray,
    negatives_d: SharedArray,
    delta_d: SharedArray,
    shard: int,
    p0: int,
    p1: int,
    b0: int,
    b1: int,
    batch_size: int,
    step0: int,
    total_steps: int,
    learning_rate: float,
    min_learning_rate: float,
) -> None:
    """Train one shard from the epoch-start block and write its delta.

    The shard trains a private copy of the block, so shards never race on
    the model; ``delta[shard]`` receives the update its batches applied.
    ``pairs`` holds the epoch's (in, out) id pairs, one per row, in the
    trainer's id dtype (int16 up to 32,768 tokens, else int32).
    """
    with attached(weights_d, pairs_d, negatives_d, delta_d) as (
        weights,
        pairs,
        negatives,
        delta,
    ):
        local = np.array(weights)
        run_pair_batches(
            local,
            pairs[p0:p1, 0],
            pairs[p0:p1, 1],
            negatives[b0:b1],
            batch_size,
            step0,
            total_steps,
            learning_rate,
            min_learning_rate,
        )
        np.subtract(local, weights, out=delta[shard])


def run_epoch(
    pool: WorkerPool,
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
    """Train one epoch's pairs into ``weights``, sharded over batch ranges; returns step.

    ``in_ids`` and ``out_ids`` may be strided views, such as the two
    columns of the epoch's pair block; the shared pair segment takes their
    dtype (int16 up to 32,768 tokens).  ``pool.config.shards`` fixes the
    plan.  ``negatives`` has one row per batch; shard boundaries fall on
    batch boundaries so each shard owns whole rows of it.
    """
    n_pairs = int(in_ids.shape[0])
    n_batches = int(negatives.shape[0])
    s_eff = max(1, min(pool.config.shards, n_batches))
    if s_eff <= 1:
        return run_pair_batches(
            weights,
            in_ids,
            out_ids,
            negatives,
            batch_size,
            step,
            total_steps,
            learning_rate,
            min_learning_rate,
        )

    with ShmArena() as arena:
        weights_d = arena.share(weights)
        # One segment of (in, out) rows, filled column by column: no
        # contiguous copy of a strided column is made on the way.
        pairs_d, pairs = arena.empty((n_pairs, 2), in_ids.dtype)
        pairs[:, 0] = in_ids
        pairs[:, 1] = out_ids
        negatives_d = arena.share(negatives)
        delta_d, delta = arena.empty((s_eff,) + weights.shape, weights.dtype)
        tasks = []
        for shard, (b0, b1) in enumerate(shard_ranges(n_batches, s_eff)):
            p0 = b0 * batch_size
            p1 = min(b1 * batch_size, n_pairs)
            tasks.append(
                (
                    weights_d,
                    pairs_d,
                    negatives_d,
                    delta_d,
                    shard,
                    p0,
                    p1,
                    b0,
                    b1,
                    batch_size,
                    step + p0,
                    total_steps,
                    learning_rate,
                    min_learning_rate,
                )
            )
        pool.run(_train_shard_task, tasks)
        for shard in range(s_eff):
            weights += delta[shard]
    return step + n_pairs
