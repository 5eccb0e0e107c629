"""The benchmark's workloads: inputs, set-up, the measured operation, checks.

Every workload runs the same life cycle in its set-up, so the traced run
sees every layer of the program whichever operation it then measures:

1. generate the ``imdb_wt`` scenario (reviews matched to a movie table)
   from the seed and hold out the leading ``DELTA_FRACTION`` of the table
   rows as an ingest delta (the generator emits gold-matched rows first,
   so the delta carries matches the queries need);
2. ``fit`` on the rest and ``match``; ``save`` that base index;
3. ``load`` the base index, ``ingest`` the delta (``add_records``),
   ``match``; ``save`` the full index;
4. ``load`` the full index memory-mapped and ``match`` it, which must
   reproduce step 3's rankings exactly.

The measured operation is then one of:

* ``fit``   — a cold ``TDMatch.fit`` of the base corpora plus the first
  ``match`` (time from raw corpora to rankings);
* ``serve`` — one ``match_result`` over every query of the loaded index.

``add_records`` is timed only inside the set-up (``setup_s``, and the
``ingest.*`` layers of a traced run): as an operation of its own, its
fastest latency still moved ~25% between runs on a shared host.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

SCENARIO = "imdb_wt"
K = 20
DELTA_FRACTION = 0.1
# Training settings of every workload; MRR_FLOOR is the quality the
# operation's rankings must reach.
NUM_WALKS = 10
WALK_LENGTH = 15
EPOCHS = 2
LEARNING_RATE = 0.025
VECTOR_SIZE = 64
MRR_FLOOR = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str  # "fit" | "serve"
    n_entities: int  # movies: the table has one row each, the text two reviews each


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="fit", operation="fit", n_entities=30),
        Workload(name="serve_small", operation="serve", n_entities=50),
    )
}


def make_config():
    from repro.core.config import TDMatchConfig

    config = TDMatchConfig.for_text_to_data()
    config.walks.num_walks = NUM_WALKS
    config.walks.walk_length = WALK_LENGTH
    config.word2vec.vector_size = VECTOR_SIZE
    config.word2vec.epochs = EPOCHS
    config.word2vec.learning_rate = LEARNING_RATE
    return config


def split_delta(table):
    """Split off the leading ``DELTA_FRACTION`` of a table's rows.

    Returns ``(base table, delta rows)``.
    """
    from repro.corpus.table import Table

    rows = list(table.rows)
    n_held = max(1, int(len(rows) * DELTA_FRACTION))
    base = Table(table.name, table.columns)
    for row in rows[n_held:]:
        base.add_row(row)
    return base, rows[:n_held]


def ranking_key(result) -> List[tuple]:
    """A match result as comparable data: ids and exact scores per query."""
    return [(r.query_id, tuple(r.candidates)) for r in result.rankings]


def mrr(result, gold: Dict[str, Set[str]]) -> float:
    from repro.eval.metrics import mean_reciprocal_rank

    return mean_reciprocal_rank(result.rankings.as_id_lists(), gold)


class Fixture:
    """The products of one set-up: corpora, indexes and reference rankings."""

    def __init__(self, workload: Workload, seed: int, workdir: str, tracer):
        from repro.datasets import ScenarioSize, generate_scenario

        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        scenario = generate_scenario(SCENARIO, size=ScenarioSize(n_entities=workload.n_entities), seed=seed)
        self.first = scenario.first
        self.base, self.delta = split_delta(scenario.second)
        self.config = make_config()
        self.gold = scenario.gold
        base_ids = set(self.base.row_ids)
        self.base_gold = {q: m & base_ids for q, m in self.gold.items() if m & base_ids}

        os.makedirs(workdir, exist_ok=True)
        self.base_index = os.path.join(workdir, "base.tdmidx")
        self.full_index = os.path.join(workdir, "full.tdmidx")

        pipeline = self.fit()
        self.base_result = self.match(pipeline)
        self.save(pipeline, self.base_index)
        live = self.load(self.base_index, mmap=False)
        self.ingest(live)
        self.full_result = self.match(live)
        self.save(live, self.full_index)
        self.served = self.load(self.full_index, mmap=True)
        self.base_key = ranking_key(self.base_result)
        self.full_key = ranking_key(self.full_result)
        if ranking_key(self.match(self.served)) != self.full_key:
            raise AssertionError("rankings of the mmap-loaded index differ from the in-memory ones")

    def quality(self) -> float:
        """MRR of the rankings the operation must reproduce.

        ``fit`` has not seen the delta, so it is scored only on the queries
        whose gold matches are in the base corpus.
        """
        if self.workload.operation == "fit":
            return mrr(self.base_result, self.base_gold)
        return mrr(self.full_result, self.gold)

    # -- calls into the program, each a root span ------------------------
    def fit(self):
        from repro.core.pipeline import TDMatch

        with self.tracer.span("fit"):
            pipeline = TDMatch(self.config, seed=self.seed).fit(self.first, self.base)
            self.tracer.count("nodes", pipeline.graph.num_nodes())
            self.tracer.count("train_pairs", pipeline.model.stats.pairs)
        return pipeline

    def match(self, pipeline):
        with self.tracer.span("match"):
            result = pipeline.match_result(k=K)
            self.tracer.count("scored_pairs", result.retrieval.scored_pairs)
        return result

    def save(self, pipeline, path: str) -> None:
        with self.tracer.span("save"):
            pipeline.save(path)
            self.tracer.count("bytes", os.path.getsize(path))

    def load(self, path: str, mmap: bool):
        from repro.core.pipeline import TDMatch

        with self.tracer.span("load"):
            return TDMatch.load(path, mmap=mmap)

    def ingest(self, pipeline) -> List[str]:
        with self.tracer.span("ingest"):
            return pipeline.add_records(self.delta, side="second")


def operation(fixture: Fixture) -> Tuple[Callable[[], object], Callable[[object], bool]]:
    """The workload's operation, ready to run once, and the check of its output.

    A correct output equals the set-up's reference rankings exactly (ids
    and scores).
    """
    if fixture.workload.operation == "fit":
        return (
            lambda: fixture.match(fixture.fit()),
            lambda result: ranking_key(result) == fixture.base_key,
        )
    return (
        lambda: fixture.match(fixture.served),
        lambda result: ranking_key(result) == fixture.full_key,
    )
