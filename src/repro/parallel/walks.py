"""Sharded random-walk generation over shared-memory CSR arrays.

The start-node range is split into ``num_shards`` contiguous slices; each
shard is one :func:`_walk_shard_task`, which runs the same vectorised batch
core as the serial engine (:func:`repro.graph.walk_engine.walk_batch_ids`)
against zero-copy views of the CSR ``indptr``/``indices`` and writes its
rows into a preallocated shared-memory output matrix.  The
:class:`~repro.parallel.shm.WorkerPool` runs the tasks in this process at
``num_workers <= 1`` and in worker processes above that; there is no other
multi-shard path.

RNG stream discipline
---------------------
* A single-shard plan consumes the stage's serial generator directly, so
  ``num_shards=1`` is bit-identical to :class:`CSRWalkEngine` (the shard
  covers every start node and iterates rounds/batches in the serial
  order).  :func:`repro.graph.walk_engine.make_walk_engine` picks
  :class:`CSRWalkEngine` itself for such a plan.
* Multi-shard plans derive one independent stream per shard via
  :func:`repro.utils.rng.spawn_rngs` — shard *i*'s draws depend only on
  ``(base, i)`` and its own slice, never on what other shards do, which is
  what makes the corpus deterministic per shard count and lets any worker
  count execute the same plan bit-identically.

Walks come out shard-major (shard 0's rounds first, then shard 1's, …);
with one shard this degenerates to the serial round-major order.  Like the
serial engine's, each is an ``int32`` array of node ids into the graph: a
row of the output matrix, never decoded to labels.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.graph import MatchGraph
from repro.graph.walk_engine import CSRWalkEngine, walk_batch_ids
from repro.graph.walks import RandomWalkConfig, resolve_start_nodes
from repro.parallel.config import ParallelConfig
from repro.parallel.shm import ShmArena, SharedArray, WorkerPool, attached
from repro.utils.rng import ensure_rng, spawn_rngs


def shard_ranges(n: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges splitting ``n`` items into shards.

    Always returns ``num_shards`` ranges (possibly empty ones when
    ``num_shards > n``): the plan — and therefore the per-shard stream
    assignment — depends only on the shard count, never on clamping.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    base, extra = divmod(max(0, int(n)), num_shards)
    ranges = []
    lo = 0
    for i in range(num_shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def walk_shard(
    indptr: np.ndarray,
    indices: np.ndarray,
    start_ids: np.ndarray,
    rng: np.random.Generator,
    num_walks: int,
    walk_length: int,
    batch_size: int,
    out_walks: np.ndarray,
    out_lengths: np.ndarray,
    row_offset: int = 0,
) -> int:
    """Run one shard's walks, writing rows at ``row_offset``; returns rows.

    Iterates rounds and batches exactly like the serial engine over its
    slice, so a shard covering every start node reproduces the serial
    corpus for the same generator state.
    """
    row = int(row_offset)
    for _ in range(num_walks):
        for lo in range(0, int(start_ids.size), batch_size):
            chunk = start_ids[lo : lo + batch_size]
            walks, lengths = walk_batch_ids(indptr, indices, chunk, walk_length, rng)
            out_walks[row : row + chunk.size] = walks
            out_lengths[row : row + chunk.size] = lengths
            row += int(chunk.size)
    return row - int(row_offset)


def _walk_shard_task(
    indptr_d: SharedArray,
    indices_d: SharedArray,
    starts_d: SharedArray,
    walks_d: SharedArray,
    lengths_d: SharedArray,
    lo: int,
    hi: int,
    row_offset: int,
    rng: np.random.Generator,
    num_walks: int,
    walk_length: int,
    batch_size: int,
) -> int:
    """Worker entry point: attach the shared segments and run one shard."""
    with attached(indptr_d, indices_d, starts_d, walks_d, lengths_d) as (
        indptr,
        indices,
        starts,
        out_walks,
        out_lengths,
    ):
        return walk_shard(
            indptr,
            indices,
            starts[lo:hi],
            rng,
            num_walks,
            walk_length,
            batch_size,
            out_walks,
            out_lengths,
            row_offset=row_offset,
        )


class ParallelWalkEngine(CSRWalkEngine):
    """CSR walk engine whose corpus is a set of shard tasks.

    Only corpus generation is overridden.  The full id matrix is produced first (the sharded part),
    then ``iter_walks`` yields its rows as the serial engine yields its
    walks: one ``int32`` node-id array per walk.
    """

    name = "csr-parallel"

    def __init__(
        self,
        graph: MatchGraph,
        config: Optional[RandomWalkConfig] = None,
        batch_size: Optional[int] = None,
        parallel: Optional[ParallelConfig] = None,
    ):
        super().__init__(graph, config, batch_size=batch_size)
        self.parallel = parallel if parallel is not None else ParallelConfig(num_workers=1)

    def iter_walks(self, seed=None) -> Iterator[np.ndarray]:
        rng = ensure_rng(seed)
        starts = resolve_start_nodes(self.graph, self.config)
        if not starts:
            return
        start_ids = self.graph.encode(starts)
        walks, lengths = self._walk_id_matrix(start_ids, rng, seed)
        for row, n in zip(walks, lengths.tolist()):
            yield row[:n]

    def _shard_rngs(self, rng: np.random.Generator, seed, num_shards: int):
        """Per-shard generators: the serial stream at one shard, spawned
        ``SeedSequence`` streams otherwise (base = the integer seed, or one
        draw from the serial stream when the seed is not an integer — both
        deterministic for a fixed seed)."""
        if num_shards == 1:
            return [rng]
        if isinstance(seed, (int, np.integer)):
            base = int(seed)
        else:
            base = int(rng.integers(0, np.iinfo(np.int64).max))
        return spawn_rngs(base, num_shards)

    def _walk_id_matrix(self, start_ids: np.ndarray, rng, seed):
        """The whole corpus as ``(walks, lengths)`` id arrays: one
        :func:`_walk_shard_task` per non-empty start range."""
        config = self.config
        num_shards = self.parallel.shards
        ranges = shard_ranges(int(start_ids.size), num_shards)
        rngs = self._shard_rngs(rng, seed, num_shards)
        total_rows = config.num_walks * int(start_ids.size)
        with ShmArena() as arena, WorkerPool(self.parallel, label="walks") as pool:
            indptr_d = arena.share(self.graph.indptr)
            indices_d = arena.share(self.graph.indices)
            starts_d = arena.share(np.ascontiguousarray(start_ids))
            walks_d, walks_view = arena.empty((total_rows, config.walk_length), np.int32)
            lengths_d, lengths_view = arena.empty((total_rows,), np.int64)
            tasks = []
            row = 0
            for (lo, hi), shard_rng in zip(ranges, rngs):
                if hi > lo:
                    tasks.append(
                        (
                            indptr_d,
                            indices_d,
                            starts_d,
                            walks_d,
                            lengths_d,
                            lo,
                            hi,
                            row,
                            shard_rng,
                            config.num_walks,
                            config.walk_length,
                            self.batch_size,
                        )
                    )
                    row += (hi - lo) * config.num_walks
            pool.run(_walk_shard_task, tasks)
            # Private copies so the segments can be unlinked before the
            # walks are yielded.
            return np.array(walks_view), np.array(lengths_view)
