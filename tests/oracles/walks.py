"""Reference random walks: one Python-level step at a time.

Each step looks up the current node's neighbours in the dict-of-sets
adjacency and draws one of them with a scalar ``rng.integers`` call.  The
CSR engine consumes randomness differently, so corpora differ walk by walk
under one seed, but both must share the walk semantics: the same
start-node multiset, uniform neighbour choice, and an early stop on
isolated nodes.

The oracle walks over labels; the library's engines yield node-id arrays
into their graph.  :func:`label_walks` decodes an engine's corpus to
labels so the two can be compared.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.graph.graph import MatchGraph
from repro.graph.walk_engine import CSRWalkEngine
from repro.graph.walks import RandomWalkConfig, resolve_start_nodes
from repro.utils.rng import ensure_rng
from tests.oracles.graph import ReferenceGraph


def single_walk(graph: MatchGraph, start: str, length: int, rng) -> List[str]:
    """One uniform random walk of ``length`` nodes starting at ``start``.

    The walk stops early if it reaches an isolated node.
    """
    graph = ReferenceGraph.thaw(graph)
    return _walk_from(start, length, rng, lambda label: sorted(graph.neighbors(label)))


def _walk_from(start: str, length: int, rng, options_of) -> List[str]:
    """Walk using ``options_of(label)`` as the ordered neighbour lookup.

    Neighbours are consumed in sorted order rather than raw set order: set
    iteration depends on string hash randomisation.
    """
    walk = [start]
    current = start
    while len(walk) < length:
        options = options_of(current)
        if not options:
            break
        current = options[int(rng.integers(0, len(options)))]
        walk.append(current)
    return walk


def iter_walks_python(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    seed=None,
) -> Iterator[List[str]]:
    """The full walk corpus, generated step by step."""
    config = config or RandomWalkConfig()
    rng = ensure_rng(seed)
    starts = resolve_start_nodes(graph, config)
    graph = ReferenceGraph.thaw(graph)
    cache: dict = {}

    def options_of(label: str) -> tuple:
        options = cache.get(label)
        if options is None:
            options = tuple(sorted(graph.neighbors(label)))
            cache[label] = options
        return options

    for _ in range(config.num_walks):
        for start in starts:
            yield _walk_from(start, config.walk_length, rng, options_of)


class PythonWalkEngine:
    """The walk-engine interface over :func:`iter_walks_python`.

    Stands in for the result of :func:`repro.graph.walk_engine.make_walk_engine`
    when a test swaps the oracle into the pipeline, so like the library's
    engines it yields each walk as an ``int32`` node-id array into
    :attr:`graph`.
    """

    name = "python"

    def __init__(self, graph: MatchGraph, config: Optional[RandomWalkConfig] = None):
        self.graph = graph
        self.config = config or RandomWalkConfig()

    def iter_walks(self, seed=None) -> Iterator[np.ndarray]:
        for walk in iter_walks_python(self.graph, self.config, seed=seed):
            yield self.graph.encode(walk)


def label_walks(engine, seed=None) -> List[List[str]]:
    """``engine``'s whole corpus, each walk decoded to its node labels."""
    labels = engine.graph.labels
    return [[labels[i] for i in walk.tolist()] for walk in engine.iter_walks(seed=seed)]


def csr_label_walks(
    graph: MatchGraph,
    config: Optional[RandomWalkConfig] = None,
    seed=None,
) -> List[List[str]]:
    """The CSR engine's corpus in the oracle's label form."""
    return label_walks(CSRWalkEngine(graph, config), seed=seed)
