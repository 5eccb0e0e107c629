"""Epoch-sharded Word2Vec training over a shared-memory model block.

Hogwild-style data parallelism, made deterministic: each epoch's shuffled
pair sequence is split into contiguous *batch* ranges, every shard trains
the update on a private copy of the epoch-start ``(2V, D)`` block (input
and output vectors stacked, see :func:`repro.embeddings.word2vec.pair_update`),
and the parent applies the per-shard deltas (``local - snapshot``) in fixed
shard order.  All randomness — window sampling, the permutation, the alias
negatives — is consumed in the parent before sharding (see
:meth:`repro.embeddings.word2vec.Word2Vec._train_vectorized`), so the
result depends only on the shard count:

* ``S_eff <= 1`` runs :func:`repro.embeddings.word2vec.run_pair_batches`
  in place — bit-identical to the serial trainer (the delta detour is
  avoided deliberately: ``a + (b - a) != b`` in float32).
* ``S_eff > 1`` is deterministic for a fixed shard count at **any** worker
  count: the inline path and the pooled path run the same shard tasks and
  apply deltas in the same order.

The learning rate decays on the global step, so each shard passes the step
its first pair would have had in the serial loop — the per-batch rates are
exactly the serial schedule's.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.word2vec import run_pair_batches
from repro.parallel.config import ParallelConfig
from repro.parallel.shm import ShmArena, SharedArray, WorkerPool, attached
from repro.parallel.walks import shard_ranges


def train_shard_delta(
    snapshot: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    batch_size: int,
    step0: int,
    total_steps: int,
    learning_rate: float,
    min_learning_rate: float,
) -> np.ndarray:
    """One shard's training pass from the epoch-start block ``snapshot``.

    Returns the block update this shard's batches would have applied,
    computed against a private copy so shards never race on the model.
    """
    local = np.array(snapshot)
    run_pair_batches(
        local,
        in_ids,
        out_ids,
        negatives,
        batch_size,
        step0,
        total_steps,
        learning_rate,
        min_learning_rate,
    )
    local -= snapshot
    return local


def _train_shard_task(
    weights_d: SharedArray,
    in_ids_d: SharedArray,
    out_ids_d: SharedArray,
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
    """Worker entry point: train one shard, write its delta into the shared block."""
    with attached(weights_d, in_ids_d, out_ids_d, negatives_d, delta_d) as (
        weights,
        in_ids,
        out_ids,
        negatives,
        delta,
    ):
        delta[shard] = train_shard_delta(
            weights,
            in_ids[p0:p1],
            out_ids[p0:p1],
            negatives[b0:b1],
            batch_size,
            step0,
            total_steps,
            learning_rate,
            min_learning_rate,
        )


class EpochShardTrainer:
    """Context manager running sharded Word2Vec epochs behind one pool."""

    def __init__(self, config: ParallelConfig):
        self.config = config
        self._pool: WorkerPool = WorkerPool(config, label="word2vec")

    def __enter__(self) -> "EpochShardTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._pool.shutdown()

    def run_epoch(
        self,
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

        ``negatives`` has one row per batch; shard boundaries fall on batch
        boundaries so each shard owns whole rows of it.
        """
        n_pairs = int(in_ids.shape[0])
        n_batches = int(negatives.shape[0])
        s_eff = max(1, min(self.config.shards, n_batches))
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

        plans = []
        for shard, (b0, b1) in enumerate(shard_ranges(n_batches, s_eff)):
            p0 = b0 * batch_size
            p1 = min(b1 * batch_size, n_pairs)
            plans.append((shard, b0, b1, p0, p1, step + p0))

        if self._pool.inline:
            deltas = [
                train_shard_delta(
                    weights,
                    in_ids[p0:p1],
                    out_ids[p0:p1],
                    negatives[b0:b1],
                    batch_size,
                    step0,
                    total_steps,
                    learning_rate,
                    min_learning_rate,
                )
                for shard, b0, b1, p0, p1, step0 in plans
            ]
            for delta in deltas:
                weights += delta
            return step + n_pairs

        with ShmArena() as arena:
            weights_d = arena.share(weights)
            in_ids_d = arena.share(in_ids)
            out_ids_d = arena.share(out_ids)
            negatives_d = arena.share(negatives)
            delta_d, delta = arena.empty((s_eff,) + weights.shape, weights.dtype)
            self._pool.run(
                _train_shard_task,
                [
                    (
                        weights_d,
                        in_ids_d,
                        out_ids_d,
                        negatives_d,
                        delta_d,
                        shard,
                        p0,
                        p1,
                        b0,
                        b1,
                        batch_size,
                        step0,
                        total_steps,
                        learning_rate,
                        min_learning_rate,
                    )
                    for shard, b0, b1, p0, p1, step0 in plans
                ],
            )
            for shard in range(s_eff):
                weights += delta[shard]
        return step + n_pairs
