"""Serving benchmark — incremental fit versus a full refit.

A serving deployment that receives a 5% corpus delta has two options:
refit the whole pipeline from scratch, or splice the delta in with
``add_documents`` / ``add_records`` (touched-neighbourhood walks plus
warm-started fine-tuning).  This bench measures both on two registry
scenarios — one table-second (``imdb_wt``, exercising ``add_records``)
and one text-second (``snopes``, exercising ``add_documents``) — and
asserts the incremental path:

1. converges to the full refit's MRR within ``MRR_TOLERANCE``, and
2. applies the delta at least ``SPEEDUP_FLOOR``× faster than the refit.

Telemetry lands in ``benchmarks/results/BENCH_incremental_serving.json``
(scenario size, each incremental pipeline's ``report()`` — per-stage
seconds, incidents, graph and model state, delta count — and
measured-vs-floor speedups) for CI artifact archiving.
"""

from __future__ import annotations

import time

from repro.core.pipeline import TDMatch
from repro.corpus.documents import TextCorpus
from repro.corpus.table import Table
from repro.eval.metrics import evaluate_rankings
from repro.eval.report import format_table

from benchmarks.bench_utils import (
    DEFAULT_KS,
    get_scenario,
    write_bench_json,
    write_result,
    wrw_config,
)

SCENARIOS = ("imdb_wt", "snopes")
DELTA_FRACTION = 0.05
SPEEDUP_FLOOR = 3.0
MRR_TOLERANCE = 0.05
SEED = 7


def _split_second(second):
    """Hold out the leading ``DELTA_FRACTION`` of the candidate corpus.

    The scenario generators emit the gold-matched entities first and the
    distractors last, so holding out the *leading* slice removes candidates
    that queries actually target — the incremental path must genuinely
    integrate them, not just absorb extra distractors.
    """
    if isinstance(second, Table):
        rows = list(second.rows)
        n_held = max(1, int(len(rows) * DELTA_FRACTION))
        reduced = Table(second.name, second.columns)
        for row in rows[n_held:]:
            reduced.add_row(row)
        return reduced, rows[:n_held], "add_records"
    if isinstance(second, TextCorpus):
        docs = list(second)
        n_held = max(1, int(len(docs) * DELTA_FRACTION))
        reduced = TextCorpus(docs[n_held:], name=second.name)
        return reduced, docs[:n_held], "add_documents"
    raise TypeError(f"cannot split corpus of type {type(second)!r}")


def _run_scenario(scenario_name: str):
    scenario = get_scenario(scenario_name)
    reduced_second, held, add_method = _split_second(scenario.second)

    # Full refit: the cost of reacting to the delta by fitting from scratch.
    full = TDMatch(wrw_config(scenario.task), seed=SEED)
    refit_start = time.perf_counter()
    full.fit(scenario.first, scenario.second)
    refit_seconds = time.perf_counter() - refit_start
    full_report = evaluate_rankings(
        "refit", full.match(k=20), scenario.gold, ks=DEFAULT_KS
    )

    # Incremental: fit on the reduced corpus once, then splice the delta in.
    inc = TDMatch(wrw_config(scenario.task), seed=SEED)
    inc.fit(scenario.first, reduced_second)
    delta_start = time.perf_counter()
    added = getattr(inc, add_method)(held, side="second")
    delta_seconds = time.perf_counter() - delta_start
    inc_report = evaluate_rankings(
        "incremental", inc.match(k=20), scenario.gold, ks=DEFAULT_KS
    )

    speedup = refit_seconds / max(delta_seconds, 1e-9)
    return {
        "scenario": scenario_name,
        "delta kind": add_method,
        "delta objects": len(added),
        "refit MRR": round(full_report.mrr, 3),
        "incremental MRR": round(inc_report.mrr, 3),
        "MRR gap": round(abs(full_report.mrr - inc_report.mrr), 3),
        "refit s": round(refit_seconds, 3),
        "delta s": round(delta_seconds, 3),
        "speedup": round(speedup, 1),
    }, inc


def _build_series():
    rows = []
    pipelines = {}
    for scenario_name in SCENARIOS:
        row, pipeline = _run_scenario(scenario_name)
        rows.append(row)
        pipelines[scenario_name] = pipeline
    return rows, pipelines


def test_incremental_vs_refit(benchmark):
    rows, pipelines = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    table = format_table(rows, title="Incremental fit vs full refit (5% delta)")
    print("\n" + table)
    write_result("incremental_serving", table)
    write_bench_json(
        "incremental_serving",
        {
            "delta_fraction": DELTA_FRACTION,
            "floors": {"speedup": SPEEDUP_FLOOR, "mrr_tolerance": MRR_TOLERANCE},
            "scenarios": {
                row["scenario"]: {
                    "delta_kind": row["delta kind"],
                    "delta_objects": row["delta objects"],
                    "refit_mrr": row["refit MRR"],
                    "incremental_mrr": row["incremental MRR"],
                    "refit_seconds": row["refit s"],
                    "delta_seconds": row["delta s"],
                    "speedup": row["speedup"],
                    "report": pipelines[row["scenario"]].report(),
                }
                for row in rows
            },
        },
    )

    for row in rows:
        # Incremental fit must converge to refit quality on the same gold.
        assert row["MRR gap"] <= MRR_TOLERANCE, row
        # ... at a fraction of the cost of reacting with a full refit.
        assert row["speedup"] >= SPEEDUP_FLOOR, row
