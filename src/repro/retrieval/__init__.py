"""Top-k retrieval backends for the matching step (Section IV-B).

Two backends implement the :class:`~repro.retrieval.base.RetrievalBackend`
contract (raw embedding matrices in, top-k out):

* :class:`~repro.retrieval.dense.DenseTopK` — exact all-pairs cosine,
  chunked matmul with :func:`~repro.embeddings.similarity.topk`, bounded memory;
  ``retrieve_from_scores`` takes the top-k of a precomputed score matrix;
* :class:`~repro.retrieval.blocked.BlockedTopK` — scores *only* the pairs a
  :class:`~repro.retrieval.base.QueryBlocker` admits (the paper
  conclusion's blocking future work, actually skipping the work).

Both return a :class:`~repro.retrieval.base.RetrievalResult` (one CSR block:
flat ``indices`` and ``scores``, ``offsets`` per query), whose ``to_rankings``
is the one decoder of positional results into rankings.
:func:`~repro.retrieval.combined.combine_scores` fuses score matrices
(Figure 10's W-RW & S-BE combination) for ``retrieve_from_scores``.
"""

from repro.retrieval.base import (
    QueryBlocker,
    RetrievalBackend,
    RetrievalResult,
    RetrievalStats,
)
from repro.retrieval.blocked import BlockedTopK
from repro.retrieval.combined import combine_scores, minmax_normalize_rows
from repro.retrieval.dense import DenseTopK

__all__ = [
    "QueryBlocker",
    "RetrievalBackend",
    "RetrievalResult",
    "RetrievalStats",
    "DenseTopK",
    "BlockedTopK",
    "combine_scores",
    "minmax_normalize_rows",
]
