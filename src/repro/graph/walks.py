"""Random-walk corpus generation (the walk half of Algorithm 4).

For every node of the graph we start ``num_walks`` uniform random walks of
``walk_length`` steps; each walk is a sentence of nodes, held as node ids
into the graph.  The union of the sentences is the training
corpus of the word-embedding model.  Related metadata nodes co-occur in
walks more often than unrelated ones, which is what makes their vectors
close.

Walks are generated by :class:`~repro.graph.walk_engine.CSRWalkEngine`,
which advances all walks in lock-step with vectorised draws over the
graph's CSR arrays; this module holds the walk configuration and the
start-node resolution.  Walks are deterministic under
a fixed seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.graph.graph import MatchGraph


@dataclass
class RandomWalkConfig:
    """Parameters of random-walk generation (paper defaults: 100 × 30).

    Parameters
    ----------
    num_walks:
        Walks started from every node.
    walk_length:
        Number of nodes per walk (the start node included).
    start_nodes:
        Optional restriction of the start nodes; ``None`` starts from every
        node as in the paper's default configuration.
    """

    num_walks: int = 100
    walk_length: int = 30
    start_nodes: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")


def resolve_start_nodes(graph: MatchGraph, config: RandomWalkConfig) -> List[str]:
    """The start nodes of one walk round, in deterministic order.

    When ``config.start_nodes`` references labels absent from the graph, a
    :class:`RuntimeWarning` is emitted (once, listing up to five offenders)
    and the walks proceed from the remaining labels.
    """
    if config.start_nodes is None:
        return graph.nodes()
    starts = [label for label in config.start_nodes if graph.has_node(label)]
    missing = [label for label in config.start_nodes if not graph.has_node(label)]
    if missing:
        preview = ", ".join(repr(label) for label in missing[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        warnings.warn(
            f"{len(missing)} start node(s) not in the graph and skipped: "
            f"{preview}{suffix}",
            RuntimeWarning,
            stacklevel=3,
        )
    return starts

