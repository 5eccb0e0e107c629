"""Figure 7 — match quality (MAP) with increasing number of walks per node.

More walks improve quality with diminishing returns; sparse graphs (such as
CoronaCheck) saturate earlier than dense ones (IMDb).
"""

from __future__ import annotations

from repro.eval.report import format_table

from benchmarks.bench_utils import SMOKE, run_wrw, write_bench_json, write_result

SCENARIOS = ["imdb_wt"] if SMOKE else ["imdb_wt", "corona_gen", "politifact"]
NUM_WALKS = [2, 5] if SMOKE else [2, 5, 10, 20]


def _build_series():
    rows = []
    for scenario_name in SCENARIOS:
        for count in NUM_WALKS:
            run = run_wrw(scenario_name, num_walks=count)
            rows.append(
                {
                    "scenario": scenario_name,
                    "num_walks": count,
                    "engine": run.pipeline.timings.note("walk_engine"),
                    "MAP@5": round(run.report.map_at[5], 3),
                    "MRR": round(run.report.mrr, 3),
                }
            )
    return rows


def test_fig7_num_walks(benchmark):
    rows = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    table = format_table(rows, title="Figure 7: MAP@5 vs number of walks per node")
    print("\n" + table)
    write_result("fig7_num_walks", table)
    write_bench_json("fig7_num_walks", {"rows": rows})

    by_key = {(r["scenario"], r["num_walks"]): r["MAP@5"] for r in rows}
    for scenario_name in SCENARIOS:
        # More walks never hurt substantially (diminishing returns allowed).
        assert by_key[(scenario_name, NUM_WALKS[-1])] >= by_key[(scenario_name, 2)] - 0.1
