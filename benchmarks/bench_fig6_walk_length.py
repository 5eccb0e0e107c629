"""Figure 6 — match quality (MAP) with increasing random-walk length.

The paper sweeps walk lengths from 5 to 50 over all five scenarios and
observes that quality improves up to length ~20 and then flattens.  The
harness sweeps a reduced grid over three representative scenarios (one per
task type) at benchmark scale.
"""

from __future__ import annotations

from repro.eval.report import format_table

from benchmarks.bench_utils import SMOKE, run_wrw, write_result

SCENARIOS = ["imdb_wt"] if SMOKE else ["imdb_wt", "corona_gen", "politifact"]
WALK_LENGTHS = [5, 10] if SMOKE else [5, 10, 20, 30]


def _build_series():
    rows = []
    for scenario_name in SCENARIOS:
        for length in WALK_LENGTHS:
            run = run_wrw(scenario_name, walk_length=length)
            rows.append(
                {
                    "scenario": scenario_name,
                    "walk_length": length,
                    "MAP@5": round(run.report.map_at[5], 3),
                    "MRR": round(run.report.mrr, 3),
                }
            )
    return rows


def test_fig6_walk_length(benchmark):
    rows = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    table = format_table(rows, title="Figure 6: MAP@5 vs random-walk length")
    print("\n" + table)
    write_result("fig6_walk_length", table)

    # Paper shape: longer walks never collapse quality, and the longest
    # length is at least as good as length 5 for every scenario.
    by_key = {(r["scenario"], r["walk_length"]): r["MAP@5"] for r in rows}
    for scenario_name in SCENARIOS:
        assert by_key[(scenario_name, WALK_LENGTHS[-1])] >= by_key[(scenario_name, 5)] - 0.1
