"""Tests for the retrieval subsystem: dense/blocked/combined backends,
the vectorised top-k kernel, and their wiring through matcher, blocking,
pipeline, and CLI."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.blocking import (
    GraphQueryBlocker,
    MetadataNeighborhoodBlocking,
    TextQueryBlocker,
    TokenBlocking,
)
from repro.core.config import RetrievalConfig, TDMatchConfig
from repro.core.exceptions import PipelineError
from repro.core.matcher import MetadataMatcher, combine_score_matrices
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.embeddings.similarity import argtopk, cosine_matrix, top_k_neighbors
from repro.graph.graph import MatchGraph, NodeKind
from repro.retrieval import (
    BlockedTopK,
    CombinedTopK,
    DenseTopK,
    combine_scores,
    minmax_normalize_rows,
)


# ----------------------------------------------------------------------
# Reference implementations (the pre-refactor per-row Python loops).
def reference_top_k(similarities, k, candidate_ids):
    k = min(k, similarities.shape[1])
    results = []
    for row in similarities:
        order = np.lexsort((np.arange(row.size), -row))[:k]
        results.append([(candidate_ids[i], float(row[i])) for i in order])
    return results


def reference_combine(matrices, weights=None):
    if weights is None:
        weights = [1.0] * len(matrices)
    total = np.zeros(matrices[0].shape, dtype=float)
    for matrix, weight in zip(matrices, weights):
        normalised = np.zeros_like(matrix, dtype=float)
        for i, row in enumerate(matrix):
            low, high = float(row.min()), float(row.max())
            if high > low:
                normalised[i] = (row - low) / (high - low)
            else:
                normalised[i] = 0.0
        total += weight * normalised
    return total / sum(weights)


class DictBlocker:
    """QueryBlocker over a plain dict (missing queries block to [])."""

    def __init__(self, blocks):
        self.blocks = blocks

    def block_for(self, query_id):
        return self.blocks.get(query_id, [])


def ids(n, prefix):
    return [f"{prefix}{i}" for i in range(n)]


# ----------------------------------------------------------------------
# Strategies
score_values = st.floats(-1.0, 1.0, allow_nan=False, width=32)
# A tiny value set forces heavy ties, including across the partition boundary.
tie_values = st.sampled_from([0.0, 0.5, 1.0])


def matrix_strategy(values, max_rows=6, max_cols=10):
    return st.integers(1, max_rows).flatmap(
        lambda n: st.integers(1, max_cols).flatmap(
            lambda m: st.lists(
                st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n
            ).map(lambda rows: np.array(rows, dtype=float))
        )
    )


# ----------------------------------------------------------------------
class TestArgTopK:
    def test_boundary_ties_pick_lowest_indices(self):
        scores = np.array([[1.0, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(argtopk(scores, 2), [[0, 1]])

    def test_full_width(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        np.testing.assert_array_equal(argtopk(scores, 3), [[1, 2, 0]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            argtopk(np.zeros(3), 1)

    def test_nan_scores_rank_last_like_reference(self):
        """External score matrices may carry NaNs; parity with old lexsort."""
        nan = float("nan")
        scores = np.array([[0.9, nan, nan, 0.5, 0.1], [nan, 0.2, 0.8, nan, nan]])
        np.testing.assert_array_equal(argtopk(scores, 4)[:, :3], [[0, 3, 4], [2, 1, 0]])
        cids = ids(5, "c")
        got = top_k_neighbors(scores, 4, cids)
        ref = reference_top_k(scores, 4, cids)
        assert [[c for c, _ in row] for row in got] == [[c for c, _ in row] for row in ref]

    @given(matrix_strategy(score_values), st.integers(1, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_parity_with_reference_lexsort(self, scores, k):
        cids = ids(scores.shape[1], "c")
        assert top_k_neighbors(scores, k, cids) == reference_top_k(scores, k, cids)

    @given(matrix_strategy(tie_values), st.integers(1, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_parity_under_heavy_ties(self, scores, k):
        cids = ids(scores.shape[1], "c")
        assert top_k_neighbors(scores, k, cids) == reference_top_k(scores, k, cids)


# ----------------------------------------------------------------------
class TestDenseTopK:
    @given(
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(2, 4),
        st.integers(1, 10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference_top_k(self, n_q, n_c, dim, k, seed):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n_q, dim))
        candidates = rng.normal(size=(n_c, dim))
        result = DenseTopK(dtype=None).retrieve(queries, candidates, k)
        reference = reference_top_k(cosine_matrix(queries, candidates), k, ids(n_c, "c"))
        got = [
            [(f"c{i}", float(s)) for i, s in zip(idx, sc)]
            for idx, sc in zip(result.indices, result.scores)
        ]
        for got_row, ref_row in zip(got, reference):
            assert [g[0] for g in got_row] == [r[0] for r in ref_row]
            np.testing.assert_allclose(
                [g[1] for g in got_row], [r[1] for r in ref_row], rtol=1e-12
            )

    @given(st.integers(1, 9), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_results_independent_of_chunk_size(self, chunk_size, seed):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(7, 3))
        candidates = rng.normal(size=(11, 3))
        baseline = DenseTopK(chunk_size=1024, dtype=None).retrieve(queries, candidates, 4)
        chunked = DenseTopK(chunk_size=chunk_size, dtype=None).retrieve(queries, candidates, 4)
        for a, b in zip(baseline.indices, chunked.indices):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(baseline.scores, chunked.scores):
            np.testing.assert_allclose(a, b, rtol=1e-12)
        # float32 keeps the same ranking; scores may differ by BLAS rounding
        base32 = DenseTopK(chunk_size=1024).retrieve(queries, candidates, 4)
        chunk32 = DenseTopK(chunk_size=chunk_size).retrieve(queries, candidates, 4)
        for a, b in zip(base32.scores, chunk32.scores):
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_stats_count_all_pairs(self):
        result = DenseTopK().retrieve(np.ones((3, 2)), np.ones((5, 2)), 2)
        assert result.stats.scored_pairs == 15
        assert result.stats.reduction_ratio == 0.0

    def test_float32_default(self):
        result = DenseTopK().retrieve(np.ones((1, 2)), np.ones((2, 2)), 1)
        assert result.scores[0].dtype == np.float32

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DenseTopK(chunk_size=0)
        with pytest.raises(ValueError):
            DenseTopK().retrieve(np.ones((1, 2)), np.ones((2, 3)), 1)
        with pytest.raises(ValueError):
            DenseTopK().retrieve(np.ones((1, 2)), np.ones((2, 2)), 0)


# ----------------------------------------------------------------------
class TestBlockedTopK:
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.lists(st.integers(0, 9), max_size=10), min_size=4, max_size=4),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_equals_dense_restricted_to_blocks(self, seed, raw_blocks):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(4, 3))
        candidates = rng.normal(size=(10, 3))
        qids, cids = ids(4, "q"), ids(10, "c")
        blocks = {f"q{i}": [f"c{j}" for j in row] for i, row in enumerate(raw_blocks)}
        backend = BlockedTopK(DictBlocker(blocks), fallback_to_full=True)
        result = backend.retrieve(queries, candidates, 5, query_ids=qids, candidate_ids=cids)
        scores = cosine_matrix(queries, candidates)
        for row, qid in enumerate(qids):
            block_cols = sorted({int(c[1:]) for c in blocks[qid]})
            cols = block_cols if block_cols else list(range(10))  # fallback
            restricted = scores[row, cols][None, :]
            ref = reference_top_k(restricted, 5, [cids[c] for c in cols])[0]
            got_ids = [cids[i] for i in result.indices[row]]
            assert got_ids == [r[0] for r in ref]
            np.testing.assert_allclose(result.scores[row], [r[1] for r in ref], rtol=1e-12)

    def test_scores_exactly_blocked_pairs(self):
        rng = np.random.default_rng(0)
        queries, candidates = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        blocks = {"q0": ["c0", "c1"], "q1": ["c3"], "q2": ["c4", "c5", "c0"]}
        backend = BlockedTopK(DictBlocker(blocks))
        result = backend.retrieve(
            queries, candidates, 10, query_ids=ids(3, "q"), candidate_ids=ids(6, "c")
        )
        assert result.stats.scored_pairs == 6
        assert result.stats.empty_blocks == 0
        assert result.stats.reduction_ratio == pytest.approx(1 - 6 / 18)

    def test_empty_block_without_fallback_returns_empty(self):
        backend = BlockedTopK(DictBlocker({}), fallback_to_full=False)
        result = backend.retrieve(
            np.ones((2, 2)), np.ones((3, 2)), 2, query_ids=ids(2, "q"), candidate_ids=ids(3, "c")
        )
        assert all(idx.size == 0 for idx in result.indices)
        assert result.stats.scored_pairs == 0
        assert result.stats.empty_blocks == 2

    def test_empty_block_with_fallback_scores_everything(self):
        backend = BlockedTopK(DictBlocker({}), fallback_to_full=True)
        result = backend.retrieve(
            np.ones((2, 2)), np.ones((3, 2)), 2, query_ids=ids(2, "q"), candidate_ids=ids(3, "c")
        )
        assert all(idx.size == 2 for idx in result.indices)
        assert result.stats.scored_pairs == 6
        assert result.stats.empty_blocks == 2

    def test_unknown_and_duplicate_block_ids(self):
        rng = np.random.default_rng(1)
        queries, candidates = rng.normal(size=(1, 3)), rng.normal(size=(4, 3))
        blocks = {"q0": ["c2", "ghost", "c2", "c0"]}
        result = BlockedTopK(DictBlocker(blocks)).retrieve(
            queries, candidates, 10, query_ids=["q0"], candidate_ids=ids(4, "c")
        )
        assert sorted(result.indices[0]) == [0, 2]
        assert result.stats.scored_pairs == 2

    def test_shared_blocks_are_grouped_not_rescored(self):
        """Queries with identical blocks share one gather+matmul group."""
        rng = np.random.default_rng(2)
        queries, candidates = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        shared = ["c1", "c4"]
        blocks = {f"q{i}": list(shared) for i in range(5)}
        result = BlockedTopK(DictBlocker(blocks)).retrieve(
            queries, candidates, 2, query_ids=ids(5, "q"), candidate_ids=ids(6, "c")
        )
        assert result.stats.scored_pairs == 10
        dense = DenseTopK(dtype=None).retrieve(queries, candidates, 6)
        for row in range(5):
            got = list(result.indices[row])
            expected = [i for i in dense.indices[row] if i in (1, 4)]
            assert got == expected

    def test_requires_ids(self):
        with pytest.raises(ValueError):
            BlockedTopK(DictBlocker({})).retrieve(np.ones((1, 2)), np.ones((2, 2)), 1)


# ----------------------------------------------------------------------
class TestCombine:
    @given(
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_vectorised_combine_matches_reference_loop(self, n_matrices, seed, weighted):
        rng = np.random.default_rng(seed)
        matrices = [rng.normal(size=(4, 6)) for _ in range(n_matrices)]
        weights = list(rng.uniform(0.1, 3.0, size=n_matrices)) if weighted else None
        np.testing.assert_allclose(
            combine_scores(matrices, weights=weights),
            reference_combine(matrices, weights=weights),
            rtol=1e-12,
        )

    def test_constant_rows_contribute_zero(self):
        constant = np.full((2, 3), 0.7)
        varying = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.5]])
        combined = combine_scores([constant, varying])
        np.testing.assert_allclose(combined, minmax_normalize_rows(varying) / 2.0)
        np.testing.assert_allclose(minmax_normalize_rows(constant), 0.0)

    def test_combine_score_matrices_delegates(self):
        m = np.array([[0.1, 0.9]])
        np.testing.assert_allclose(combine_score_matrices([m, m]), [[0.0, 1.0]])

    def test_combined_topk_matches_match_combined(self):
        rng = np.random.default_rng(3)
        queries = {f"q{i}": rng.normal(size=4) for i in range(5)}
        candidates = {f"c{i}": rng.normal(size=4) for i in range(8)}
        matcher = MetadataMatcher(queries, candidates)
        other = rng.uniform(size=(5, 8))
        via_matcher = matcher.match_combined(other, k=4)
        result = CombinedTopK().retrieve_from_scores([matcher.score_matrix(), other], k=4)
        via_backend = result.to_rankings(matcher.query_ids, matcher.candidate_ids)
        for qid in matcher.query_ids:
            assert via_matcher[qid].ids() == via_backend[qid].ids()
        # the fusion ranks each pair once; reduction_ratio stays in [0, 1]
        assert result.stats.scored_pairs == 5 * 8
        assert result.stats.reduction_ratio == 0.0

    def test_combined_validation(self):
        with pytest.raises(ValueError):
            combine_scores([])
        with pytest.raises(ValueError):
            combine_scores([np.zeros((1, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError):
            combine_scores([np.zeros((1, 2))], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            CombinedTopK().retrieve_from_scores([np.zeros((1, 2))], k=0)


# ----------------------------------------------------------------------
class TestBlockedMatcherRegression:
    @pytest.fixture()
    def setup(self):
        queries = {"q1": np.array([1.0, 0.0]), "q2": np.array([0.0, 1.0])}
        candidates = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.0, 1.0]),
            "c": np.array([0.5, 0.5]),
        }
        matcher = MetadataMatcher(queries, candidates)
        texts = {"a": "storm thriller", "b": "empire drama", "c": "moon comedy"}
        query_texts = {"q1": "a storm thriller tonight", "q2": "zzz nothing shared"}
        blocker = TextQueryBlocker(TokenBlocking().fit(texts), query_texts)
        return matcher, blocker

    def test_full_score_matrix_never_computed(self, setup, monkeypatch):
        """The blocking-saves-nothing bug: match() must not touch score_matrix."""
        matcher, blocker = setup

        def boom(self):
            raise AssertionError("score_matrix() computed during blocked match")

        monkeypatch.setattr(MetadataMatcher, "score_matrix", boom)
        rankings, _ = matcher.match_with_stats(
            k=3, backend=BlockedTopK(blocker, fallback_to_full=True)
        )
        assert len(rankings) == 2

    def test_compared_pairs_equals_scored_pairs(self, setup):
        matcher, blocker = setup
        _, stats = matcher.match_with_stats(
            k=3, backend=BlockedTopK(blocker, fallback_to_full=False)
        )
        # q1 blocks to {a}; q2 blocks to nothing and does not fall back.
        assert stats.scored_pairs == 1
        assert stats.scored_pairs == matcher.retrieval_stats.scored_pairs
        assert stats.empty_blocks == 1

    def test_neighborhood_blocking_pluggable(self):
        """MetadataNeighborhoodBlocking works through the blocked backend."""
        g = MatchGraph()
        g.add_node("doc::q", kind=NodeKind.METADATA)
        g.add_node("row::a", kind=NodeKind.METADATA)
        g.add_node("row::b", kind=NodeKind.METADATA)
        g.add_node("shared", kind=NodeKind.DATA)
        g.add_node("other", kind=NodeKind.DATA)
        g.add_edge("doc::q", "shared")
        g.add_edge("row::a", "shared")
        g.add_edge("row::b", "other")
        matcher = MetadataMatcher(
            {"q": np.array([1.0, 0.0])},
            {"a": np.array([1.0, 0.1]), "b": np.array([0.9, 0.0])},
        )
        blocker = GraphQueryBlocker(
            MetadataNeighborhoodBlocking(g, max_hops=2),
            query_labels={"q": "doc::q"},
            candidate_labels={"a": "row::a", "b": "row::b"},
        )
        rankings, stats = matcher.match_with_stats(
            k=2, backend=BlockedTopK(blocker, fallback_to_full=False)
        )
        assert rankings["q"].ids() == ["a"]  # b is outside the 2-hop block
        assert stats.scored_pairs == 1


# ----------------------------------------------------------------------
# Seeded-scenario identity: every backend reproduces the pre-refactor
# matcher's rankings end to end.
@pytest.fixture(scope="module")
def fitted_pipeline():
    scenario = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=11)
    config = TDMatchConfig.fast(walks__num_walks=4, walks__walk_length=8, word2vec__epochs=1)
    pipeline = TDMatch(config, seed=11)
    pipeline.fit(scenario.first, scenario.second)
    return scenario, pipeline


class TestBackendScenarioParity:
    def test_all_backends_reproduce_reference_rankings(self, fitted_pipeline):
        _scenario, pipeline = fitted_pipeline
        matcher = pipeline.matcher()
        reference = reference_top_k(matcher.score_matrix(), 5, matcher.candidate_ids)
        ref_ids = {
            qid: [cid for cid, _ in row] for qid, row in zip(matcher.query_ids, reference)
        }

        dense64 = matcher.match(k=5)
        dense32, _ = matcher.match_with_stats(k=5, backend=DenseTopK())
        all_blocks = {qid: list(matcher.candidate_ids) for qid in matcher.query_ids}
        blocked, _ = matcher.match_with_stats(
            k=5, backend=BlockedTopK(DictBlocker(all_blocks))
        )
        combined = matcher.match_combined(matcher.score_matrix(), k=5)
        for qid in matcher.query_ids:
            assert dense64[qid].ids() == ref_ids[qid]
            assert dense32[qid].ids() == ref_ids[qid]
            assert blocked[qid].ids() == ref_ids[qid]
            # fusing the matrix with itself must preserve its own ranking
            assert combined[qid].ids() == ref_ids[qid]

    def test_match_reuses_cached_score_matrix(self, fitted_pipeline):
        """A second match() after score_matrix() must not change results."""
        _scenario, pipeline = fitted_pipeline
        matcher = pipeline.matcher()
        before = matcher.match(k=5)  # uncached: chunked backend path
        matcher.score_matrix()
        after = matcher.match(k=5)  # cached: argtopk over the cache
        for qid in matcher.query_ids:
            assert before[qid].ids() == after[qid].ids()
            assert [s for _, s in before[qid].candidates] == pytest.approx(
                [s for _, s in after[qid].candidates], rel=1e-12
            )

    def test_pipeline_blocked_equals_dense_on_blocks(self, fitted_pipeline):
        _scenario, pipeline = fitted_pipeline
        pipeline.config.retrieval.backend = "blocked"
        try:
            result = pipeline.match_result(k=5)
        finally:
            pipeline.config.retrieval.backend = "dense"
        stats = result.retrieval
        assert stats.backend == "blocked"
        assert stats.scored_pairs <= stats.all_pairs
        # the provenance the benchmark tables and --json read
        payload = result.to_dict()["retrieval"]
        assert payload["backend"] == "blocked"
        assert payload["scored_pairs"] == stats.scored_pairs
        # restricted parity against the full score matrix
        matcher = pipeline.matcher()
        scores = matcher.score_matrix()
        blocker = pipeline._graph_query_blocker("first")
        pos = {cid: i for i, cid in enumerate(matcher.candidate_ids)}
        for row, qid in enumerate(matcher.query_ids):
            cols = sorted({pos[c] for c in blocker.block_for(qid) if c in pos})
            if not cols:
                cols = list(range(len(matcher.candidate_ids)))
            ref = reference_top_k(scores[row, cols][None, :], 5, [matcher.candidate_ids[c] for c in cols])[0]
            assert result.rankings[qid].ids() == [cid for cid, _ in ref]

    def test_token_blocking_via_pipeline_blocker_param(self, fitted_pipeline):
        scenario, pipeline = fitted_pipeline
        token = TokenBlocking().fit(scenario.candidate_texts())
        blocker = TextQueryBlocker(token, scenario.query_texts())
        result = pipeline.match_result(k=5, blocker=blocker)
        assert result.retrieval.backend == "blocked"
        assert len(result.rankings) == len(pipeline.matcher().query_ids)

    def test_pipeline_token_blocking_without_blocker_raises(self, fitted_pipeline):
        _scenario, pipeline = fitted_pipeline
        pipeline.config.retrieval.backend = "blocked"
        pipeline.config.retrieval.blocking = "token"
        try:
            with pytest.raises(PipelineError):
                pipeline.match(k=5)
        finally:
            pipeline.config.retrieval.backend = "dense"
            pipeline.config.retrieval.blocking = "neighborhood"


# ----------------------------------------------------------------------
class TestRetrievalConfig:
    def test_defaults(self):
        config = RetrievalConfig()
        assert config.backend == "dense"
        assert config.dtype == "float64"

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(backend="ann")
        with pytest.raises(ValueError):
            RetrievalConfig(chunk_size=0)
        with pytest.raises(ValueError):
            RetrievalConfig(dtype="float16")
        with pytest.raises(ValueError):
            RetrievalConfig(blocking="lsh")
        with pytest.raises(ValueError):
            RetrievalConfig(max_hops=0)

    def test_override_syntax(self):
        config = TDMatchConfig.fast(retrieval__backend="blocked", retrieval__chunk_size=64)
        assert config.retrieval.backend == "blocked"
        assert config.retrieval.chunk_size == 64


class TestCliRetrievalFlags:
    ARGS = [
        "run", "--scenario", "corona_gen", "--size", "tiny", "--k", "5",
        "--num-walks", "4", "--walk-length", "8", "--vector-size", "32", "--epochs", "1",
    ]

    def test_dense_run_prints_stats(self, capsys):
        assert cli.main(self.ARGS + ["--chunk-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "backend=dense" in out
        assert "reduction_ratio=0.000" in out

    def test_neighborhood_blocking_implies_blocked(self, capsys):
        assert cli.main(self.ARGS + ["--blocking", "neighborhood"]) == 0
        out = capsys.readouterr().out
        assert "backend=blocked" in out

    def test_token_blocking_run(self, capsys):
        assert cli.main(self.ARGS + ["--retrieval-backend", "blocked", "--blocking", "token"]) == 0
        out = capsys.readouterr().out
        assert "backend=blocked" in out
