"""The walk engine of Algorithm 4's walk stage.

:class:`CSRWalkEngine` reads the graph's CSR arrays (``indptr`` and
``indices`` of :class:`~repro.graph.graph.MatchGraph`) and advances *all*
walks of a batch one step per iteration: a single vectorised
``rng.integers`` draw picks a neighbour offset for every active walk, and a
boolean mask retires walks that reached an isolated node.  Walks live as
an ``int32`` id matrix, and ``iter_walks`` yields each walk as an ``int32``
array of node ids into the graph: the pipeline joins them into one flat
:class:`~repro.embeddings.vocab.IdCorpus`, and Word2Vec trains on those
ids with the graph's labels, so no walk is decoded to label strings.
The corpus has the walk semantics of the paper — every resolved start
node ``num_walks`` times, uniform neighbour choice at every step, early
termination on isolated nodes — and is deterministic under a fixed seed.

:func:`make_walk_engine` picks the serial engine or, for a plan of more
than one shard, its sharded twin
:class:`repro.parallel.walks.ParallelWalkEngine`.  The step-at-a-time
walk loop the engine must agree with is the test oracle in
``tests/oracles/walks.py``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.graph.graph import MatchGraph
from repro.graph.walks import RandomWalkConfig, resolve_start_nodes
from repro.utils.rng import ensure_rng

#: Walks advanced together per vectorised batch.  Bounds peak memory at
#: ``batch_size × walk_length`` int32 cells (~4 MB at the default) while
#: keeping every numpy call wide enough to amortise dispatch overhead.
DEFAULT_BATCH_SIZE = 32768


def walk_batch_ids(
    indptr: np.ndarray,
    indices: np.ndarray,
    start_ids: np.ndarray,
    walk_length: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance one batch of walks to completion over raw CSR arrays.

    The id-matrix core of :meth:`CSRWalkEngine.iter_walks`, taking bare
    ``indptr``/``indices`` so worker processes can run it against
    shared-memory views (see :mod:`repro.parallel.walks`).  Returns
    ``(walks, lengths)``: an ``int32`` matrix of shape
    ``(len(start_ids), walk_length)`` and the effective length of each row
    (cells past the length are undefined).
    """
    n_walks = int(start_ids.size)
    walks = np.zeros((n_walks, walk_length), dtype=np.int32)
    walks[:, 0] = start_ids
    lengths = np.ones(n_walks, dtype=np.int64)
    if walk_length == 1 or n_walks == 0:
        return walks, lengths

    current = start_ids.astype(np.int64, copy=True)
    active = (indptr[current + 1] - indptr[current]) > 0
    for step in range(1, walk_length):
        active_idx = np.nonzero(active)[0]
        if active_idx.size == 0:
            break
        cur = current[active_idx]
        row_start = indptr[cur]
        degrees = indptr[cur + 1] - row_start
        offsets = rng.integers(0, degrees)
        nxt = indices[row_start + offsets].astype(np.int64)
        walks[active_idx, step] = nxt
        current[active_idx] = nxt
        lengths[active_idx] = step + 1
        stuck = (indptr[nxt + 1] - indptr[nxt]) == 0
        if stuck.any():
            active[active_idx[stuck]] = False
    return walks, lengths


class CSRWalkEngine:
    """Vectorised engine: all walks advance one step per numpy call."""

    name = "csr"

    def __init__(
        self,
        graph: MatchGraph,
        config: Optional[RandomWalkConfig] = None,
        batch_size: Optional[int] = None,
    ):
        self.graph = graph
        self.config = config or RandomWalkConfig()
        self.batch_size = DEFAULT_BATCH_SIZE if batch_size is None else int(batch_size)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def iter_walks(self, seed=None) -> Iterator[np.ndarray]:
        """Lazily yield one ``int32`` node-id array per walk, batch by batch.

        The ids index the graph's labels.  The corpus is deterministic for
        a given ``(seed, batch_size)``; changing the batch size regroups
        the vectorised draws and therefore produces a different
        (identically distributed) corpus.
        """
        rng = ensure_rng(seed)
        starts = resolve_start_nodes(self.graph, self.config)
        if not starts:
            return
        graph = self.graph
        start_ids = graph.encode(starts)
        for _ in range(self.config.num_walks):
            for lo in range(0, start_ids.size, self.batch_size):
                walks, lengths = walk_batch_ids(
                    graph.indptr,
                    graph.indices,
                    start_ids[lo : lo + self.batch_size],
                    self.config.walk_length,
                    rng,
                )
                for row, n in zip(walks, lengths.tolist()):
                    yield row[:n]


def make_walk_engine(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    batch_size: Optional[int] = None,
    parallel=None,
):
    """The walk engine for ``graph``: serial, or sharded.

    A ``parallel`` plan (a :class:`repro.parallel.ParallelConfig`) of more
    than one shard selects :class:`repro.parallel.walks.ParallelWalkEngine`;
    otherwise the serial :class:`CSRWalkEngine` runs, at any worker count.
    """
    config = config or RandomWalkConfig()
    if parallel is not None and parallel.shards > 1:
        # Imported lazily: repro.parallel.walks imports this module.
        from repro.parallel.walks import ParallelWalkEngine

        return ParallelWalkEngine(graph, config, batch_size=batch_size, parallel=parallel)
    return CSRWalkEngine(graph, config, batch_size=batch_size)
