"""Table VIII — compression performance across the five scenarios.

For every scenario the paper compares the original graph, the expanded
graph, MSP at β=0.5 and β=0.25, and SSuM at compression ratio 0.1, in terms
of graph size (#nodes, #edges) and matching quality (MRR).
"""

from __future__ import annotations

from repro.eval.report import format_table

from benchmarks.bench_utils import run_wrw, write_bench_json, write_result

SCENARIOS = ["imdb_wt", "corona_gen", "snopes", "politifact", "audit"]

CONFIGS = [
    ("original", dict(expansion=False)),
    ("expanded", dict(expansion=True)),
    ("msp(0.5)", dict(expansion=True, compression_method="msp", compression_ratio=0.5)),
    ("msp(0.25)", dict(expansion=True, compression_method="msp", compression_ratio=0.25)),
    ("ssum(0.1)", dict(expansion=True, compression_method="ssum", compression_ratio=0.1)),
]


def _scenario_rows(scenario_name: str):
    rows = []
    for label, kwargs in CONFIGS:
        run = run_wrw(scenario_name, **kwargs)
        rows.append(
            {
                "scenario": scenario_name,
                "graph": label,
                "#N": run.graph.num_nodes(),
                "#E": run.graph.num_edges(),
                "MRR": round(run.report.mrr, 3),
            }
        )
    return rows


def _build_table():
    rows = []
    for scenario_name in SCENARIOS:
        rows.extend(_scenario_rows(scenario_name))
    return rows


def test_table8_compression(benchmark):
    rows = benchmark.pedantic(_build_table, rounds=1, iterations=1)
    table = format_table(rows, title="Table VIII: compression performance (#nodes, #edges, MRR)")
    print("\n" + table)
    write_result("table8_compression", table)
    write_bench_json("table8_compression", {"rows": rows})

    by_key = {(r["scenario"], r["graph"]): r for r in rows}
    for scenario_name in SCENARIOS:
        original = by_key[(scenario_name, "original")]
        expanded = by_key[(scenario_name, "expanded")]
        msp_half = by_key[(scenario_name, "msp(0.5)")]
        msp_quarter = by_key[(scenario_name, "msp(0.25)")]
        # Expansion never reduces the number of edges.
        assert expanded["#E"] >= original["#E"] * 0.5
        # MSP compresses the expanded graph and stays a subgraph of it.
        assert msp_half["#N"] <= expanded["#N"]
        assert msp_quarter["#N"] <= expanded["#N"]
        # Quality stays a valid probability everywhere.
        for label, _ in CONFIGS:
            assert 0.0 <= by_key[(scenario_name, label)]["MRR"] <= 1.0
