"""Table VII — train and test execution times per method and task.

The paper reports training time (embedding learning / fine tuning) and the
average time of a single match (test).  The harness measures wall-clock
times for one representative scenario per task at benchmark scale:

* text to data  — IMDb (WT)
* structured text — Audit
* text to text  — Politifact
"""

from __future__ import annotations

import time

from repro.baselines.supervised import train_test_split_queries
from repro.eval.report import format_table

from benchmarks.bench_utils import (
    get_scenario,
    get_sbert_matcher,
    run_wrw,
    write_bench_json,
    write_result,
)

TASK_SCENARIOS = {
    "text-to-data": "imdb_wt",
    "structured-text": "audit",
    "text-to-text": "politifact",
}


def _time_wrw(scenario_name: str):
    run = run_wrw(scenario_name)
    timings = run.pipeline.timings.as_dict()
    train = timings.get("graph_build", 0) + timings.get("walks", 0) + timings.get("word2vec", 0)
    start = time.perf_counter()
    run.pipeline.match(k=20)
    test = (time.perf_counter() - start) / max(len(run.scenario.first), 1)
    return train, test, run.pipeline.timings.note("walk_engine", "-")


def _time_sbert(scenario_name: str):
    scenario = get_scenario(scenario_name)
    matcher = get_sbert_matcher(scenario_name)
    start = time.perf_counter()
    matcher.rank(scenario.query_texts(), scenario.candidate_texts(), k=20)
    total = time.perf_counter() - start
    return 0.0, total / max(len(scenario.first), 1), "-"


def _time_supervised(scenario_name: str):
    from repro.baselines.rank import RankMatcher

    scenario = get_scenario(scenario_name)
    queries = scenario.query_texts()
    candidates = scenario.candidate_texts()
    train_queries, test_queries = train_test_split_queries(list(scenario.gold), 0.6, seed=3)
    matcher = RankMatcher(seed=3)
    start = time.perf_counter()
    matcher.fit(queries, candidates, scenario.gold, train_queries=train_queries)
    train = time.perf_counter() - start
    start = time.perf_counter()
    matcher.rank(queries, candidates, k=20, query_ids=test_queries[:10])
    test = (time.perf_counter() - start) / max(min(len(test_queries), 10), 1)
    return train, test, "-"


def _build_rows():
    rows = []
    for task, scenario_name in TASK_SCENARIOS.items():
        for method, timer in (
            ("w-rw", _time_wrw),
            ("s-be", _time_sbert),
            ("rank*", _time_supervised),
        ):
            train, test, walk_engine = timer(scenario_name)
            rows.append(
                {
                    "task": task,
                    "method": method,
                    "walk_engine": walk_engine,
                    "train_s": round(train, 3),
                    "test_s_per_query": round(test, 5),
                }
            )
    return rows


def test_table7_execution_times(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    table = format_table(rows, title="Table VII: train and test execution times (seconds)")
    print("\n" + table)
    write_result("table7_times", table)
    write_bench_json("table7_times", {"rows": rows})

    by_key = {(r["task"], r["method"]): r for r in rows}
    for task in TASK_SCENARIOS:
        # S-BE has no training phase; W-RW's per-match time is small (the
        # paper reports it as the fastest at test time).
        assert by_key[(task, "s-be")]["train_s"] == 0.0
        assert by_key[(task, "w-rw")]["test_s_per_query"] < 0.5
