"""Tests for the retrieval subsystem: dense/blocked backends, score fusion,
the vectorised top-k kernel (byte-equal to its oracle in
``tests/oracles/topk.py``), the CSR result, and their wiring through
matcher, blocking, pipeline, and CLI."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import cli
from repro.core.blocking import (
    GraphQueryBlocker,
    MetadataNeighborhoodBlocking,
    TextQueryBlocker,
    TokenBlocking,
)
from repro.core.config import RetrievalConfig, TDMatchConfig
from repro.core.matcher import MetadataMatcher
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.embeddings.similarity import cosine_matrix, topk
from repro.graph.graph import NodeKind
from repro.retrieval import (
    BlockedTopK,
    DenseTopK,
    combine_scores,
    minmax_normalize_rows,
)
from tests.oracles.graph import ReferenceGraph
from tests.oracles.topk import topk_reference


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


def result_rows(result):
    """Per-query ``(indices, scores)`` rows of a CSR result, after checking
    that its offsets cover both flat arrays with one row per query."""
    offsets = result.offsets
    assert len(offsets) == result.stats.n_queries + 1
    assert offsets[0] == 0 and np.all(np.diff(offsets) >= 0)
    assert offsets[-1] == result.indices.size == result.scores.size
    return [(result.indices[a:b], result.scores[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


def decoded_top_k(scores, k, candidate_ids):
    """Per-row (candidate id, score) lists of the top-k, decoded by ``to_rankings``."""
    query_ids = ids(scores.shape[0], "q")
    result = DenseTopK().retrieve_from_scores(scores, k)
    rankings = result.to_rankings(query_ids, candidate_ids)
    return [rankings[qid].candidates for qid in query_ids]


# ----------------------------------------------------------------------
# Strategies
score_values = st.floats(-1.0, 1.0, allow_nan=False, width=32)
# A tiny value set forces heavy ties, including across the partition boundary.
tie_values = st.sampled_from([0.0, 0.5, 1.0])


# Every row draws from a tie pool (signed zeros, infinities, few values) or
# from spread floats, so some rows hold surplus boundary ties and others
# none.
TIE_POOL = [-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]


@st.composite
def score_blocks(draw):
    """A score block of float64 or float32 up to 64 wide, in C, Fortran or
    strided layout, with NaN in a few rows of some blocks."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 64))
    tied = draw(arrays(dtype, (n, m), elements=st.sampled_from(TIE_POOL)))
    spread = draw(
        arrays(dtype, (n, m), elements=st.floats(-1e3, 1e3, width=32) | st.sampled_from(TIE_POOL))
    )
    tie_rows = draw(arrays(np.bool_, (n, 1)))
    block = np.where(tie_rows, tied, spread).astype(dtype)
    if n and m and draw(st.integers(0, 3)) == 0:
        for row in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            block[row, draw(st.integers(0, m - 1))] = np.nan
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        block = np.asfortranarray(block)
    elif layout == "strided":
        block = np.repeat(block, 2, axis=1)[:, ::2]
    return block


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
    """``topk``: the top-k indices and scores of each row."""

    def test_boundary_ties_pick_lowest_indices(self):
        scores = np.array([[1.0, 1.0, 1.0, 0.0]])
        idx, top = topk(scores, 2)
        np.testing.assert_array_equal(idx, [[0, 1]])
        np.testing.assert_array_equal(top, [[1.0, 1.0]])

    def test_full_width(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        idx, top = topk(scores, 3)
        np.testing.assert_array_equal(idx, [[1, 2, 0]])
        np.testing.assert_array_equal(top, [[0.9, 0.5, 0.1]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            topk(np.zeros(3), 1)

    def test_nan_scores_rank_last_like_reference(self):
        """External score matrices may carry NaNs; parity with old lexsort."""
        nan = float("nan")
        scores = np.array([[0.9, nan, nan, 0.5, 0.1], [nan, 0.2, 0.8, nan, nan]])
        np.testing.assert_array_equal(topk(scores, 4)[0][:, :3], [[0, 3, 4], [2, 1, 0]])
        cids = ids(5, "c")
        got = decoded_top_k(scores, 4, cids)
        ref = reference_top_k(scores, 4, cids)
        assert [[c for c, _ in row] for row in got] == [[c for c, _ in row] for row in ref]

    @given(matrix_strategy(score_values), st.integers(1, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_parity_with_reference_lexsort(self, scores, k):
        cids = ids(scores.shape[1], "c")
        assert decoded_top_k(scores, k, cids) == reference_top_k(scores, k, cids)

    @given(matrix_strategy(tie_values), st.integers(1, 12))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_parity_under_heavy_ties(self, scores, k):
        cids = ids(scores.shape[1], "c")
        assert decoded_top_k(scores, k, cids) == reference_top_k(scores, k, cids)

    @given(score_blocks(), st.integers(1, 40))
    # Rows past 16 entries: numpy's scalar argsort is a stable insertion
    # sort up to 16 elements, so only wider tied rows expose an unstable one.
    @example(np.tile([1.0, 0.0, 1.0, 1.0], (3, 10)), 25)
    @example(np.array([[0.5] * 40 + [1.0] * 4, [1.0] * 44], dtype=np.float32), 30)
    @example(np.array([[-0.0, 0.0] * 12 + [np.inf, -np.inf] * 4]).T.copy().T, 20)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bytes_equal_oracle(self, scores, k):
        """Indices and scores equal the earlier selection's byte for byte."""
        idx, top = topk(scores, k)
        ref_idx, ref_top = topk_reference(scores, k)
        assert (idx.dtype, top.dtype) == (ref_idx.dtype, ref_top.dtype)
        n, m = scores.shape
        assert idx.shape == top.shape == (n, min(k, m))
        if n:  # the oracle returned (0, 0) for a block without rows
            assert ref_idx.shape == ref_top.shape == idx.shape
        assert idx.tobytes() == ref_idx.tobytes()
        assert top.tobytes() == ref_top.tobytes()

    def test_k_must_be_an_integer(self):
        """Numpy integers are valid; bools and floats raise a TypeError
        naming ``k``, also through every backend."""
        scores = np.array([[0.3, 0.9, 0.1], [0.2, 0.2, 0.8]])
        expected = topk(scores, 2)
        for k in (np.int64(2), np.int32(2), np.uint8(2)):
            got = topk(scores, k)
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
        queries, candidates = np.eye(2, 3), np.eye(3)
        blocked = BlockedTopK(DictBlocker({}))
        calls = [
            lambda k: topk(scores, k),
            lambda k: DenseTopK().retrieve_from_scores(scores, k),
            lambda k: DenseTopK().retrieve(queries, candidates, k),
            lambda k: blocked.retrieve(
                queries, candidates, k, query_ids=ids(2, "q"), candidate_ids=ids(3, "c")
            ),
        ]
        for call in calls:
            for k in (True, False, np.bool_(True), 2.0, np.float64(2.0), "2", None):
                with pytest.raises(TypeError, match="k must be an integer"):
                    call(k)
            for k in (0, -1, np.int64(0)):
                with pytest.raises(ValueError, match="k must be >= 1"):
                    call(k)


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
        result = DenseTopK().retrieve(queries, candidates, k)
        reference = reference_top_k(cosine_matrix(queries, candidates), k, ids(n_c, "c"))
        got = [
            [(f"c{i}", float(s)) for i, s in zip(idx, sc)] for idx, sc in result_rows(result)
        ]
        assert len(got) == len(reference) == n_q
        for got_row, ref_row in zip(got, reference):
            assert len(got_row) == min(k, n_c)
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
        baseline = DenseTopK(chunk_size=1024).retrieve(queries, candidates, 4)
        chunked = DenseTopK(chunk_size=chunk_size).retrieve(queries, candidates, 4)
        assert len(result_rows(baseline)) == len(result_rows(chunked)) == 7
        np.testing.assert_array_equal(baseline.offsets, np.arange(0, 29, 4))
        np.testing.assert_array_equal(chunked.offsets, baseline.offsets)
        np.testing.assert_array_equal(chunked.indices, baseline.indices)
        np.testing.assert_allclose(chunked.scores, baseline.scores, rtol=1e-12)
        # float32 keeps the same ranking; scores may differ by BLAS rounding
        base32 = DenseTopK(chunk_size=1024, dtype=np.float32).retrieve(queries, candidates, 4)
        chunk32 = DenseTopK(chunk_size=chunk_size, dtype=np.float32).retrieve(
            queries, candidates, 4
        )
        assert base32.scores.shape == chunk32.scores.shape == (28,)
        np.testing.assert_allclose(chunk32.scores, base32.scores, atol=1e-5)

    def test_stats_count_all_pairs(self):
        result = DenseTopK().retrieve(np.ones((3, 2)), np.ones((5, 2)), 2)
        assert result.stats.scored_pairs == 15
        assert result.stats.reduction_ratio == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_default_keeps_the_input_dtype(self, dtype):
        result = DenseTopK().retrieve(np.ones((1, 2), dtype), np.ones((2, 2), dtype), 1)
        assert result.scores.shape == (1,)
        assert result.scores.dtype == dtype

    def test_float32_casts_float64_input(self):
        result = DenseTopK(dtype=np.float32).retrieve(np.ones((1, 2)), np.ones((2, 2)), 1)
        assert result.scores.shape == (1,)
        assert result.scores.dtype == np.float32

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
        backend = BlockedTopK(DictBlocker(blocks))
        result = backend.retrieve(queries, candidates, 5, query_ids=qids, candidate_ids=cids)
        scores = cosine_matrix(queries, candidates)
        rows = result_rows(result)
        assert len(rows) == 4
        for row, qid in enumerate(qids):
            block_cols = sorted({int(c[1:]) for c in blocks[qid]})
            cols = block_cols if block_cols else list(range(10))  # fallback
            restricted = scores[row, cols][None, :]
            ref = reference_top_k(restricted, 5, [cids[c] for c in cols])[0]
            idx_row, score_row = rows[row]
            got_ids = [cids[i] for i in idx_row]
            assert got_ids == [r[0] for r in ref]
            np.testing.assert_allclose(score_row, [r[1] for r in ref], rtol=1e-12)

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

    def test_empty_block_with_fallback_scores_everything(self):
        backend = BlockedTopK(DictBlocker({}))
        result = backend.retrieve(
            np.ones((2, 2)), np.ones((3, 2)), 2, query_ids=ids(2, "q"), candidate_ids=ids(3, "c")
        )
        assert [idx.size for idx, _ in result_rows(result)] == [2, 2]
        assert result.stats.scored_pairs == 6
        assert result.stats.empty_blocks == 2

    def test_unknown_and_duplicate_block_ids(self):
        rng = np.random.default_rng(1)
        queries, candidates = rng.normal(size=(1, 3)), rng.normal(size=(4, 3))
        blocks = {"q0": ["c2", "ghost", "c2", "c0"]}
        result = BlockedTopK(DictBlocker(blocks)).retrieve(
            queries, candidates, 10, query_ids=["q0"], candidate_ids=ids(4, "c")
        )
        [(idx_row, _scores)] = result_rows(result)
        assert sorted(idx_row.tolist()) == [0, 2]
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
        dense = DenseTopK().retrieve(queries, candidates, 6)
        blocked_rows, dense_rows = result_rows(result), result_rows(dense)
        assert len(blocked_rows) == len(dense_rows) == 5
        for (got, _), (dense_idx, _) in zip(blocked_rows, dense_rows):
            expected = [i for i in dense_idx.tolist() if i in (1, 4)]
            assert got.tolist() == expected and len(expected) == 2

    def test_equal_blocks_in_any_spelling_rank_alike(self):
        """Blocks equal as candidate sets, returned as distinct list objects,
        reordered and with duplicate and ghost ids, rank and count exactly
        like one canonical block."""
        rng = np.random.default_rng(5)
        queries, candidates = rng.normal(size=(6, 4)), rng.normal(size=(8, 4))
        qids, cids = ids(6, "q"), ids(8, "c")
        canonical = ["c1", "c3", "c6"]
        spellings = [
            list(canonical),
            ["c6", "c1", "c3"],
            ["c3", "c3", "c1", "c6", "c1"],
            ["ghost", "c1", "c6", "c3", "ghost"],
            list(canonical),
            ["c6", "c3", "c1", "nobody"],
        ]

        class FreshListBlocker:
            """Builds a new list object on every call."""

            def __init__(self, blocks):
                self.blocks = blocks

            def block_for(self, query_id):
                return list(self.blocks[query_id])

        spelled = BlockedTopK(FreshListBlocker(dict(zip(qids, spellings))))
        plain = BlockedTopK(DictBlocker({qid: canonical for qid in qids}))
        got = spelled.retrieve(queries, candidates, 2, query_ids=qids, candidate_ids=cids)
        want = plain.retrieve(queries, candidates, 2, query_ids=qids, candidate_ids=cids)
        assert got.stats.scored_pairs == want.stats.scored_pairs == 6 * 3
        assert got.stats.empty_blocks == 0
        for name in ("indices", "scores", "offsets"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        rankings = got.to_rankings(qids, cids)
        scores = cosine_matrix(queries, candidates)
        for row, qid in enumerate(qids):
            ref = reference_top_k(scores[row, [1, 3, 6]][None, :], 2, canonical)[0]
            assert rankings[qid].ids() == [cid for cid, _ in ref]

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

    def test_combined_validation(self):
        with pytest.raises(ValueError):
            combine_scores([])
        with pytest.raises(ValueError):
            combine_scores([np.zeros((1, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError):
            combine_scores([np.zeros((1, 2))], weights=[1.0, 2.0])
        # A negative, non-finite or all-zero weight would divide by zero or
        # rank inf/NaN fused scores.
        pair = [np.array([[0.1, 0.9]]), np.array([[0.9, 0.1]])]
        for weights in ([1.0, -1.0], [0.0, 0.0], [1.0, float("nan")], [float("inf"), 1.0]):
            with pytest.raises(ValueError, match="weights"):
                combine_scores(pair, weights=weights)
        np.testing.assert_allclose(combine_scores(pair, weights=[0.0, 2.0]), [[1.0, 0.0]])
        matcher = MetadataMatcher(["q"], np.ones((1, 2)), ["a", "b"], np.eye(2))
        with pytest.raises(ValueError, match="weights"):
            matcher.match_combined(np.zeros((1, 2)), k=2, weights=[1.0, -1.0])
        with pytest.raises(ValueError):
            matcher.match_combined(np.zeros((1, 2)), k=0)


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
        matcher = MetadataMatcher(
            list(queries),
            np.stack(list(queries.values())),
            list(candidates),
            np.stack(list(candidates.values())),
        )
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
        rankings, _ = matcher.match_with_stats(k=3, backend=BlockedTopK(blocker))
        assert len(rankings) == 2

    def test_compared_pairs_equals_scored_pairs(self, setup):
        matcher, blocker = setup
        _, stats = matcher.match_with_stats(k=3, backend=BlockedTopK(blocker))
        # q1 blocks to {a}; q2 blocks to nothing and falls back to all three.
        assert stats.scored_pairs == 1 + 3
        assert stats.empty_blocks == 1

    def test_neighborhood_blocking_pluggable(self):
        """MetadataNeighborhoodBlocking works through the blocked backend."""
        g = ReferenceGraph()
        g.add_node("doc::q", kind=NodeKind.METADATA)
        g.add_node("row::a", kind=NodeKind.METADATA)
        g.add_node("row::b", kind=NodeKind.METADATA)
        g.add_node("shared", kind=NodeKind.DATA)
        g.add_node("other", kind=NodeKind.DATA)
        g.add_edge("doc::q", "shared")
        g.add_edge("row::a", "shared")
        g.add_edge("row::b", "other")
        matcher = MetadataMatcher(
            ["q"], np.array([[1.0, 0.0]]), ["a", "b"], np.array([[1.0, 0.1], [0.9, 0.0]])
        )
        blocker = GraphQueryBlocker(
            MetadataNeighborhoodBlocking(g.freeze()),
            query_labels={"q": "doc::q"},
            candidate_labels={"a": "row::a", "b": "row::b"},
        )
        rankings, stats = matcher.match_with_stats(k=2, backend=BlockedTopK(blocker))
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
        dense32, _ = matcher.match_with_stats(k=5, backend=DenseTopK(dtype=np.float32))
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


# ----------------------------------------------------------------------
class TestRetrievalConfig:
    def test_defaults(self):
        config = RetrievalConfig()
        assert config.backend == "dense"
        assert config.chunk_size == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(backend="ann")
        with pytest.raises(ValueError):
            RetrievalConfig(chunk_size=0)

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
        assert cli.main(self.ARGS + ["--blocking", "token"]) == 0
        out = capsys.readouterr().out
        assert "backend=blocked" in out

    def test_fit_save_token_blocking_is_usage_error(self, tmp_path, capsys):
        """An index cannot keep the texts token blocking needs at query time."""
        index = tmp_path / "token.tdm"
        argv = ["fit-save", "--scenario", "corona_gen", "--size", "tiny", "--index", str(index)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--blocking", "token"])
        assert excinfo.value.code == 2
        assert "--blocking token" in capsys.readouterr().err
        assert not index.exists()
