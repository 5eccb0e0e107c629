"""Test oracles: straightforward reference implementations of the fit stages
and of the top-k selection.

The library ships one implementation per stage, each vectorised.  The
modules here keep an earlier formulation of every stage, mostly
loop-at-a-time, so the parity tests can check the fast code against an
implementation that is easy to read against the paper:

``graph``
    The dict-of-sets graph (``ReferenceGraph``), Algorithm 1 as a per-term
    ``add_node``/``add_edge`` loop over string-based filter strategies, and
    the merges as ``merge_nodes`` loops.
``compression``
    MSP / SSP (Algorithm 3) by per-pair shortest-path enumeration.
``walks``
    Random walks (first half of Algorithm 4) one step at a time over the
    dict-of-sets adjacency.
``word2vec``
    Word2Vec training (second half of Algorithm 4) as a token-by-token pair
    loop with per-pair negatives and ``np.add.at`` scatter, the mini-batch
    update on separate input and output matrices, and the vocabulary and
    encoding of label sentences by ``Counter`` and per-sentence lookups.
``topk``
    The top-k selection of the matching step with a whole-block tie-break
    and a ``lexsort`` of the selected pairs.

Nothing under ``src/`` imports these modules.  Tests call them directly,
or swap them into the pipeline with ``monkeypatch``.
"""
