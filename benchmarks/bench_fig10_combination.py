"""Figure 10 — combining the W-RW scores with SentenceBERT-style scores.

Averaging the cosine scores of the domain-specific graph embeddings with
those of the frozen pre-trained sentence encoder improves matching quality
in all scenarios of the paper.  The fusion is
``MetadataMatcher.match_combined`` (vectorised per-row min-max
normalisation + weighted average, then one dense top-k).
"""

from __future__ import annotations

from repro.eval.metrics import evaluate_rankings
from repro.eval.report import format_table

from benchmarks.bench_utils import (
    DEFAULT_KS,
    get_scenario,
    get_sbert_matcher,
    run_wrw,
    write_result,
)

SCENARIOS = ["imdb_wt", "corona_gen", "audit", "politifact", "snopes"]


def _combined_report(scenario_name: str):
    """Fuse W-RW and S-BE scores with the W-RW matcher's ``match_combined``."""
    scenario = get_scenario(scenario_name)
    run = run_wrw(scenario_name)
    matcher = run.pipeline.matcher()
    sbert = get_sbert_matcher(scenario_name)
    queries = {q: scenario.query_texts()[q] for q in matcher.query_ids}
    candidates = {c: scenario.candidate_texts()[c] for c in matcher.candidate_ids}
    sbert_scores = sbert.score_matrix(queries, candidates)
    combined = matcher.match_combined(sbert_scores, k=20)
    return evaluate_rankings("w-rw & s-be", combined, scenario.gold, ks=DEFAULT_KS)


def _build_series():
    rows = []
    for scenario_name in SCENARIOS:
        alone = run_wrw(scenario_name).report
        combined = _combined_report(scenario_name)
        rows.append(
            {
                "scenario": scenario_name,
                "w-rw MAP@5": round(alone.map_at[5], 3),
                "combined MAP@5": round(combined.map_at[5], 3),
                "w-rw MRR": round(alone.mrr, 3),
                "combined MRR": round(combined.mrr, 3),
            }
        )
    return rows


def test_fig10_combination(benchmark):
    rows = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    table = format_table(rows, title="Figure 10: W-RW combined with the S-BE encoder (MAP@5)")
    print("\n" + table)
    write_result("fig10_combination", table)

    # Paper shape: the combination never falls meaningfully below W-RW alone.
    for row in rows:
        assert row["combined MAP@5"] >= row["w-rw MAP@5"] - 0.1
