"""Direct graph-node embeddings by PPMI matrix factorization.

Section IV-A of the paper observes that embeddings can also be generated
*directly* from the graph (DeepWalk/node2vec style or factorization based)
with quality comparable to the default walk + Word2Vec route, at a higher
resource cost.  This module provides that alternative embedder so the two
can be swapped and compared:

1. build the random-walk co-occurrence matrix of the graph nodes (window
   ``window`` over the walks — identical context definition to Word2Vec);
2. compute the shifted positive PMI matrix;
3. factorize it with a truncated SVD (scipy) and use ``U * sqrt(S)`` as the
   node embeddings — the classic matrix-factorization view of SGNS.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import svds

from repro.graph.graph import MatchGraph
from repro.graph.walk_engine import CSRWalkEngine
from repro.graph.walks import RandomWalkConfig
from repro.utils.rng import derive_rng


@dataclass
class GraphFactorizationConfig:
    """Hyper-parameters of the PPMI + SVD embedder."""

    vector_size: int = 96
    window: int = 3
    num_walks: int = 10
    walk_length: int = 20
    shift: float = 1.0  # log(k) shift of the PMI matrix (k negative samples)

    def __post_init__(self) -> None:
        if self.vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.shift <= 0:
            raise ValueError("shift must be positive")


class GraphFactorizationEmbedder:
    """PPMI/SVD node embeddings over random-walk co-occurrences."""

    def __init__(self, config: Optional[GraphFactorizationConfig] = None, seed=None):
        self.config = config or GraphFactorizationConfig()
        self.seed = seed
        self._node_index: Dict[str, int] = {}
        self._vectors: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, graph: MatchGraph) -> "GraphFactorizationEmbedder":
        """Learn embeddings for every node of ``graph``."""
        walk_config = RandomWalkConfig(
            num_walks=self.config.num_walks, walk_length=self.config.walk_length
        )
        engine = CSRWalkEngine(graph, walk_config)
        # The walks' node ids index the CSR snapshot's labels, so they are
        # the matrix rows as they come.
        nodes = engine.csr.labels
        if len(nodes) < 2:
            raise ValueError("graph must have at least two nodes")
        self._node_index = {node: i for i, node in enumerate(nodes)}

        walks = engine.iter_walks(seed=derive_rng(self.seed, "factorization"))
        cooc = self._cooccurrence_counts(walks)
        ppmi = self._ppmi_matrix(cooc, len(nodes))
        self._vectors = self._factorize(ppmi)
        return self

    def _cooccurrence_counts(self, walks: Iterable[np.ndarray]) -> Counter:
        window = self.config.window
        counts: Counter = Counter()
        for walk in walks:
            ids = walk.tolist()
            for pos, center in enumerate(ids):
                lo = max(0, pos - window)
                hi = min(len(ids), pos + window + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    counts[(center, ids[ctx_pos])] += 1
        return counts

    def _ppmi_matrix(self, counts: Counter, n_nodes: int):
        if not counts:
            raise ValueError("no co-occurrences were observed; check the walk configuration")
        rows = np.fromiter((r for r, _c in counts), dtype=np.int64, count=len(counts))
        cols = np.fromiter((c for _r, c in counts), dtype=np.int64, count=len(counts))
        values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        total = values.sum()
        row_sums = np.zeros(n_nodes)
        col_sums = np.zeros(n_nodes)
        np.add.at(row_sums, rows, values)
        np.add.at(col_sums, cols, values)
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log((values * total) / (row_sums[rows] * col_sums[cols]))
        pmi -= np.log(self.config.shift) if self.config.shift != 1.0 else 0.0
        positive = np.maximum(pmi, 0.0)
        keep = positive > 0
        return coo_matrix(
            (positive[keep], (rows[keep], cols[keep])), shape=(n_nodes, n_nodes)
        ).tocsr()

    def _factorize(self, ppmi) -> np.ndarray:
        n_nodes = ppmi.shape[0]
        rank = min(self.config.vector_size, max(n_nodes - 2, 1))
        # ARPACK's start vector comes from the seed: left to svds it is
        # random, and singular vectors then flip sign from fit to fit.
        v0 = derive_rng(self.seed, "factorization", "svds").uniform(-1.0, 1.0, n_nodes)
        u, s, _vt = svds(ppmi.astype(np.float64), k=rank, v0=v0)
        # svds returns singular values in ascending order; flip for stability.
        order = np.argsort(-s)
        u, s = u[:, order], s[order]
        vectors = u * np.sqrt(np.maximum(s, 0.0))
        if rank < self.config.vector_size:
            padding = np.zeros((n_nodes, self.config.vector_size - rank))
            vectors = np.hstack([vectors, padding])
        return vectors

    # ------------------------------------------------------------------
    def vector(self, node: str) -> Optional[np.ndarray]:
        """The embedding of ``node``, or None if it was not in the graph."""
        if self._vectors is None:
            raise RuntimeError("embedder is not fitted")
        idx = self._node_index.get(node)
        if idx is None:
            return None
        return self._vectors[idx]

    def vectors_for(self, nodes: Sequence[str]) -> Dict[str, np.ndarray]:
        result = {}
        for node in nodes:
            vec = self.vector(node)
            if vec is not None:
                result[node] = vec
        return result

    @property
    def node_labels(self) -> List[str]:
        return list(self._node_index)
