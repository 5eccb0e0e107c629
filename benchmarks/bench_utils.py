"""Shared machinery for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  Because many
experiments reuse the same fitted pipelines (e.g. the W-RW run on IMDb feeds
Table I, Table VII, and Figure 10), this module caches scenario generation
and pipeline runs per process.

Scale note: the synthetic scenarios run at roughly 10–20× smaller scale than
the paper's corpora so that the whole harness completes on a laptop-class
CPU in minutes.  The *shape* of the results (method ordering, effect
directions) is what the harness reproduces; absolute values differ — see
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.baselines.deepmatcher import DeepMatcherBaseline
from repro.baselines.ditto import DittoMatcher
from repro.baselines.doc2vec_baseline import Doc2VecMatcher
from repro.baselines.rank import RankMatcher
from repro.baselines.sbert import SbertEncoder, SbertMatcher
from repro.baselines.supervised import train_test_split_queries
from repro.baselines.tapas import TapasMatcher
from repro.core.config import CompressionConfig, ExpansionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.datasets.base import MatchingScenario
from repro.embeddings.doc2vec import Doc2VecConfig
from repro.embeddings.pretrained import build_synthetic_pretrained
from repro.eval.metrics import RankingReport, evaluate_rankings
from repro.eval.report import format_table
from repro.utils.io import atomic_write

# ----------------------------------------------------------------------
# Benchmark scale
BENCH_SIZE = ScenarioSize(n_entities=30, n_queries=40, n_distractors=20)
BENCH_SEED = 101
DEFAULT_KS = (1, 5, 20)

# CI smoke mode: shrink sweep grids so one bench script exercises the full
# code path in seconds.  Set REPRO_BENCH_SMOKE=1 (the CI workflow does).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def write_result(name: str, text: str) -> str:
    """Persist a result table under ``benchmarks/results`` and return its path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with atomic_write(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def write_bench_json(name: str, payload: Dict[str, object]) -> str:
    """Persist machine-readable bench telemetry as ``BENCH_<name>.json``.

    The payload should carry the scenario size, per-stage seconds (or a
    pipeline's ``report()``), and measured-vs-floor speedups so CI can
    archive comparable artifacts across runs.  A ``bench`` name, the scale, and the smoke flag
    are stamped automatically.
    """
    import json

    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("bench", name)
    payload.setdefault(
        "scenario_size",
        {
            "n_entities": BENCH_SIZE.n_entities,
            "n_queries": BENCH_SIZE.n_queries,
            "n_distractors": BENCH_SIZE.n_distractors,
        },
    )
    payload.setdefault("smoke", SMOKE)
    payload.setdefault("num_workers", 0)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    # Atomic so an interrupted bench run can't leave a truncated JSON for
    # the CI artifact upload to ship.
    with atomic_write(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Scenario and pipeline caches
@lru_cache(maxsize=None)
def get_scenario(name: str, seed: int = BENCH_SEED) -> MatchingScenario:
    """Benchmark-scale scenario, cached per process."""
    return generate_scenario(name, size=BENCH_SIZE, seed=seed)


def wrw_config(
    task: str,
    num_walks: int = 10,
    walk_length: int = 15,
    vector_size: int = 64,
    epochs: int = 2,
    max_ngram: int = 3,
) -> TDMatchConfig:
    """The benchmark-scale W-RW configuration for a task type."""
    if task == "text-to-data":
        config = TDMatchConfig.for_text_to_data()
    else:
        config = TDMatchConfig.for_text_tasks()
        # Window 15 over short walks is equivalent to "full sentence" context.
        config.word2vec.window = min(15, walk_length)
    config.walks.num_walks = num_walks
    config.walks.walk_length = walk_length
    config.word2vec.vector_size = vector_size
    config.word2vec.epochs = epochs
    config.builder.preprocess.max_ngram = max_ngram
    return config


class WrwRun:
    """A fitted W-RW pipeline with its rankings and quality report.

    Matching routes through the retrieval subsystem; ``match_stats`` holds
    the backend provenance (:class:`repro.retrieval.RetrievalStats`).
    """

    def __init__(self, scenario: MatchingScenario, pipeline: TDMatch, k: int = 20):
        self.scenario = scenario
        self.pipeline = pipeline
        result = pipeline.match_result(k=k)
        self.rankings = result.rankings
        self.match_stats = result.retrieval
        self.report = evaluate_rankings("w-rw", self.rankings, scenario.gold, ks=DEFAULT_KS)

    @property
    def graph(self):
        return self.pipeline.graph


@lru_cache(maxsize=None)
def run_wrw(
    scenario_name: str,
    expansion: bool = False,
    compression_method: Optional[str] = None,
    compression_ratio: float = 0.5,
    num_walks: int = 10,
    walk_length: int = 15,
    max_ngram: int = 3,
    filter_strategy: str = "intersect",
    connect_metadata: bool = True,
    bucket_numeric: bool = False,
    merge_pretrained: bool = False,
    seed: int = 7,
) -> WrwRun:
    """Run (and cache) the W-RW pipeline on a named benchmark scenario."""
    scenario = get_scenario(scenario_name)
    config = wrw_config(
        scenario.task,
        num_walks=num_walks,
        walk_length=walk_length,
        max_ngram=max_ngram,
    )
    config.builder.filter_strategy_name = filter_strategy
    config.builder.connect_structured_metadata = connect_metadata
    if expansion and scenario.kb is not None:
        config.expansion = ExpansionConfig(resource=scenario.kb)
    if compression_method is not None:
        config.compression = CompressionConfig(
            enabled=True, method=compression_method, ratio=compression_ratio
        )
    if bucket_numeric:
        config.merge.bucket_numeric = True
    if merge_pretrained:
        pretrained = build_synthetic_pretrained(
            scenario.synonym_clusters, scenario.general_vocabulary
        )
        config.merge.pretrained = pretrained
        config.merge.synonym_pairs = _synonym_pairs(scenario)
    pipeline = TDMatch(config, seed=seed)
    pipeline.fit(scenario.first, scenario.second)
    return WrwRun(scenario, pipeline)


def _synonym_pairs(scenario: MatchingScenario):
    from repro.embeddings.pretrained import synonym_pairs_from_clusters

    pairs = synonym_pairs_from_clusters(scenario.synonym_clusters)
    return pairs[:500]


@lru_cache(maxsize=None)
def get_sbert_matcher(scenario_name: str) -> SbertMatcher:
    scenario = get_scenario(scenario_name)
    encoder = SbertEncoder(
        build_synthetic_pretrained(scenario.synonym_clusters, scenario.general_vocabulary)
    )
    return SbertMatcher(encoder)


@lru_cache(maxsize=None)
def run_sbert(scenario_name: str, k: int = 20) -> RankingReport:
    scenario = get_scenario(scenario_name)
    matcher = get_sbert_matcher(scenario_name)
    rankings = matcher.rank(scenario.query_texts(), scenario.candidate_texts(), k=k)
    return evaluate_rankings("s-be", rankings, scenario.gold, ks=DEFAULT_KS)


def _split(scenario: MatchingScenario, seed: int = 3):
    return train_test_split_queries(list(scenario.gold), train_fraction=0.6, seed=seed)


@lru_cache(maxsize=None)
def run_supervised(method: str, scenario_name: str, k: int = 20, seed: int = 3) -> RankingReport:
    """Train a supervised baseline on 60% of the queries, evaluate on the rest."""
    scenario = get_scenario(scenario_name)
    queries = scenario.query_texts()
    candidates = scenario.candidate_texts()
    train_queries, test_queries = _split(scenario, seed=seed)
    if method == "rank*":
        matcher = RankMatcher(seed=seed)
    elif method == "ditto*":
        matcher = DittoMatcher(seed=seed)
    elif method == "deep-m*":
        table = scenario.second if scenario.task == "text-to-data" else None
        matcher = DeepMatcherBaseline(table, seed=seed)
    elif method == "tapas*":
        if scenario.task != "text-to-data":
            raise ValueError("tapas* only applies to text-to-data scenarios")
        matcher = TapasMatcher(scenario.second, seed=seed)
    else:
        raise ValueError(f"unknown supervised method {method!r}")
    matcher.fit(queries, candidates, scenario.gold, train_queries=train_queries)
    rankings = matcher.rank(queries, candidates, k=k, query_ids=test_queries)
    gold_subset = {q: scenario.gold[q] for q in test_queries if q in scenario.gold}
    return evaluate_rankings(method, rankings, gold_subset, ks=DEFAULT_KS)


@lru_cache(maxsize=None)
def run_doc2vec(scenario_name: str, k: int = 20, seed: int = 5) -> RankingReport:
    scenario = get_scenario(scenario_name)
    matcher = Doc2VecMatcher(Doc2VecConfig(vector_size=64, epochs=12), seed=seed)
    rankings = matcher.rank(scenario.query_texts(), scenario.candidate_texts(), k=k)
    return evaluate_rankings("d2vec", rankings, scenario.gold, ks=DEFAULT_KS)


# ----------------------------------------------------------------------
# Table assembly helpers
def quality_rows(reports: Sequence[RankingReport], ks=DEFAULT_KS) -> List[Dict[str, object]]:
    rows = []
    for report in reports:
        row: Dict[str, object] = {"method": report.method, "MRR": round(report.mrr, 3)}
        for k in ks:
            row[f"MAP@{k}"] = round(report.map_at.get(k, float("nan")), 3)
        for k in ks:
            row[f"HasPos@{k}"] = round(report.has_positive_at.get(k, float("nan")), 3)
        rows.append(row)
    return rows


def render_quality_table(title: str, reports: Sequence[RankingReport], ks=DEFAULT_KS) -> str:
    return format_table(quality_rows(reports, ks), title=title)
