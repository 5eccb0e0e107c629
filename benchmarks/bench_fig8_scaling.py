"""Figure 8 — execution time with increasing number of graph nodes.

The paper generates STS-derived graphs of increasing size and reports the
total time to generate random walks and train the word embeddings, showing
roughly linear growth.  The harness sweeps three scenario scales and times
the same two stages, plus the matching stage routed through the retrieval
subsystem (``repro.retrieval``).

A companion benchmark compares the blocked and dense retrieval backends on
a production-scale extrapolation of the same scaling scenario (cluster-
structured embeddings, far beyond the laptop-scale graph sweeps above):
blocking at reduction ratio >= 0.9 must deliver a wall-clock speedup that
tracks the fraction of pairs it skips — the paper conclusion's case for
blocking, measured rather than assumed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_sts_scenario
from repro.eval.report import format_table
from repro.retrieval import BlockedTopK, DenseTopK
from repro.utils.rng import ensure_rng

from benchmarks.bench_utils import SMOKE, write_bench_json, write_result

SCALES = [
    ("tiny", ScenarioSize(n_entities=20, n_queries=40, n_distractors=10)),
    ("small", ScenarioSize(n_entities=40, n_queries=90, n_distractors=20)),
    ("medium", ScenarioSize(n_entities=80, n_queries=180, n_distractors=40)),
]


def _measure(scale_name: str, size: ScenarioSize):
    scenario = generate_sts_scenario(size, seed=71, threshold=0)
    config = TDMatchConfig.for_text_tasks()
    config.walks.num_walks = 8
    config.walks.walk_length = 12
    config.word2vec.vector_size = 48
    config.word2vec.epochs = 2
    pipeline = TDMatch(config, seed=9)
    start = time.perf_counter()
    pipeline.fit(scenario.first, scenario.second)
    elapsed = time.perf_counter() - start
    result = pipeline.match_result(k=20)
    timings = pipeline.timings.as_dict()
    return {
        "scale": scale_name,
        "nodes": pipeline.graph.num_nodes(),
        "edges": pipeline.graph.num_edges(),
        "walks_s": round(timings.get("walks", 0.0), 2),
        "word2vec_s": round(timings.get("word2vec", 0.0), 2),
        "match_s": round(timings.get("match", 0.0), 3),
        "retrieval": result.retrieval.backend,
        "total_s": round(elapsed, 2),
    }


def _build_series():
    return [_measure(name, size) for name, size in SCALES]


def test_fig8_scaling(benchmark):
    rows = benchmark.pedantic(_build_series, rounds=1, iterations=1)
    table = format_table(rows, title="Figure 8: execution time vs graph size (STS-derived graphs)")
    print("\n" + table)
    write_result("fig8_scaling", table)
    write_bench_json("fig8_scaling", {"rows": rows})

    # Graphs grow with the scenario scale and runtime grows with them, but
    # sub-quadratically (the paper reports linear growth).
    assert rows[0]["nodes"] < rows[1]["nodes"] < rows[2]["nodes"]
    assert rows[2]["total_s"] >= rows[0]["total_s"]
    node_ratio = rows[2]["nodes"] / max(rows[0]["nodes"], 1)
    time_ratio = rows[2]["total_s"] / max(rows[0]["total_s"], 1e-6)
    assert time_ratio <= node_ratio * 3.0


# ----------------------------------------------------------------------
# Companion: blocked vs dense retrieval at scale.
class _ClusterBlocker:
    """Precomputed per-query blocks (the cheap blocking pass, done upfront)."""

    def __init__(self, blocks):
        self._blocks = blocks

    def block_for(self, query_id):
        return self._blocks[query_id]


def _cluster_problem(n_queries, n_candidates, dim, n_clusters, seed=71):
    """Cluster-structured embeddings + cluster-membership blocks.

    Mimics the STS scaling scenario's structure (entities form similarity
    clusters) at a scale where the matmul cost dominates: each query's
    block is its cluster's candidates, a reduction ratio of
    ``1 - 1/n_clusters``.
    """
    rng = ensure_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    q_cluster = rng.integers(n_clusters, size=n_queries)
    c_cluster = rng.integers(n_clusters, size=n_candidates)
    queries = centers[q_cluster] + 0.15 * rng.normal(size=(n_queries, dim))
    candidates = centers[c_cluster] + 0.15 * rng.normal(size=(n_candidates, dim))
    query_ids = [f"q{i}" for i in range(n_queries)]
    candidate_ids = [f"c{i}" for i in range(n_candidates)]
    members = {cluster: [] for cluster in range(n_clusters)}
    for cid, cluster in zip(candidate_ids, c_cluster):
        members[cluster].append(cid)
    blocks = {qid: members[cluster] for qid, cluster in zip(query_ids, q_cluster)}
    return queries, candidates, query_ids, candidate_ids, blocks


def _best_of(fn, repeats=5):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _speedup_series():
    if SMOKE:
        n_queries, n_candidates, dim = 500, 2000, 128
    else:
        n_queries, n_candidates, dim = 2000, 6000, 256
    n_clusters = 20  # reduction ratio ~0.95
    queries, candidates, query_ids, candidate_ids, blocks = _cluster_problem(
        n_queries, n_candidates, dim, n_clusters
    )
    dense = DenseTopK(chunk_size=512, dtype=np.float32)
    blocked = BlockedTopK(_ClusterBlocker(blocks), dtype=np.float32)
    kwargs = {"query_ids": query_ids, "candidate_ids": candidate_ids}
    dense_s, dense_result = _best_of(lambda: dense.retrieve(queries, candidates, 10, **kwargs))
    blocked_s, blocked_result = _best_of(lambda: blocked.retrieve(queries, candidates, 10, **kwargs))
    stats = blocked_result.stats
    return {
        "queries": n_queries,
        "candidates": n_candidates,
        "dense_s": round(dense_s, 4),
        "blocked_s": round(blocked_s, 4),
        "speedup": round(dense_s / max(blocked_s, 1e-9), 2),
        "scored_pairs": stats.scored_pairs,
        "reduction_ratio": round(stats.reduction_ratio, 3),
    }


def test_fig8_blocked_vs_dense(benchmark):
    row = benchmark.pedantic(_speedup_series, rounds=1, iterations=1)
    table = format_table(
        [row], title="Figure 8 companion: blocked vs dense retrieval (scaling scenario, extrapolated)"
    )
    print("\n" + table)
    write_result("fig8_blocked_vs_dense", table)

    # Blocking skipped >= 90% of the pairs and the wall-clock win tracks the
    # skipped fraction (a slice of the ideal 1/(1-rr) — per-query dispatch
    # overhead eats the rest; smoke mode runs a smaller problem on noisier
    # shared runners, so its floor is deliberately loose).
    rr = row["reduction_ratio"]
    assert rr >= 0.9
    ideal = 1.0 / (1.0 - rr)
    floor = 1.0 + (0.01 if SMOKE else 0.05) * (ideal - 1.0)
    write_bench_json(
        "fig8_blocked_vs_dense",
        {
            "params": {"queries": row["queries"], "candidates": row["candidates"]},
            "timings": {"dense_s": row["dense_s"], "blocked_s": row["blocked_s"]},
            "retrieval": {
                "scored_pairs": row["scored_pairs"],
                "reduction_ratio": row["reduction_ratio"],
            },
            "speedup": {"measured": row["speedup"], "floor": round(floor, 2)},
        },
    )
    assert row["speedup"] >= floor, f"speedup {row['speedup']} below floor {floor:.2f}"
