"""Tests for the extension modules: blocking and the command-line interface."""

import numpy as np
import pytest

from repro.core.blocking import (
    MetadataNeighborhoodBlocking,
    TextQueryBlocker,
    TokenBlocking,
)
from repro.core.config import TDMatchConfig
from repro.core.matcher import MetadataMatcher
from repro.core.pipeline import TDMatch
from repro.graph.graph import NodeKind
from repro.retrieval import BlockedTopK
from repro import cli
from tests.oracles.graph import ReferenceGraph, graph_of


class TestTokenBlocking:
    @pytest.fixture()
    def candidates(self):
        return {
            "m1": "Silent Storm thriller directed by Bergman",
            "m2": "Golden Empire drama directed by Leone",
            "m3": "Paper Moon comedy directed by Kaur",
        }

    def test_block_contains_sharing_candidates(self, candidates):
        blocker = TokenBlocking().fit(candidates)
        block = blocker.block("Bergman made a tense thriller")
        assert "m1" in block
        assert "m2" not in block

    def test_min_shared_terms(self, candidates):
        blocker = TokenBlocking(min_shared_terms=2).fit(candidates)
        assert blocker.block("Bergman thriller") == ["m1"]
        # with two required terms a single shared term is not enough
        assert blocker.block("thriller only") == []
        assert blocker.block("a comedy tonight") == []
        assert blocker.block("a comedy directed tonight") == ["m3"]

    def test_block_sorts_every_sharing_candidate_by_overlap(self, candidates):
        # "directed" is in every text; "thriller" only in m1's.
        blocker = TokenBlocking().fit(candidates)
        assert blocker.block("directed") == ["m1", "m2", "m3"]
        assert blocker.block("directed drama") == ["m2", "m1", "m3"]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TokenBlocking().block("text")

    def test_invalid_min_shared(self):
        with pytest.raises(ValueError):
            TokenBlocking(min_shared_terms=0)

    def test_empty_query_returns_empty_block(self, candidates):
        blocker = TokenBlocking().fit(candidates)
        assert blocker.block("zzz qqq") == []


class TestMetadataNeighborhoodBlocking:
    def test_candidates_within_hops(self):
        g = ReferenceGraph()
        g.add_node("doc::q", kind=NodeKind.METADATA)
        g.add_node("row::a", kind=NodeKind.METADATA)
        g.add_node("row::b", kind=NodeKind.METADATA)
        g.add_node("shared", kind=NodeKind.DATA)
        g.add_node("other", kind=NodeKind.DATA)
        g.add_edge("doc::q", "shared")
        g.add_edge("row::a", "shared")
        g.add_edge("row::b", "other")
        blocker = MetadataNeighborhoodBlocking(g.freeze())
        block = blocker.block("doc::q", {"a": "row::a", "b": "row::b", "gone": "row::gone"})
        assert block == ["a"]

    def test_block_reaches_two_hops(self):
        # q - x - a - y - b: a shares a term with q, b only with a.
        g = graph_of(
            [("doc::q", NodeKind.METADATA), ("row::a", NodeKind.METADATA),
             ("row::b", NodeKind.METADATA), "x", "y"],
            [("doc::q", "x"), ("row::a", "x"), ("row::a", "y"), ("row::b", "y")],
        )
        blocker = MetadataNeighborhoodBlocking(g)
        assert blocker.block("doc::q", {"a": "row::a", "b": "row::b"}) == ["a"]
        assert blocker.block("row::a", {"q": "doc::q", "b": "row::b"}) == ["q", "b"]

    def test_block_holds_every_candidate_in_reach(self):
        # Fifty rows share one term with q; the block keeps all of them, in
        # the order of the candidate mapping.
        rows = [f"row::{i}" for i in range(50)]
        g = graph_of(
            [("doc::q", NodeKind.METADATA), "x"] + [(row, NodeKind.METADATA) for row in rows],
            [("doc::q", "x")] + [(row, "x") for row in rows],
        )
        candidates = {str(i): row for i, row in reversed(list(enumerate(rows)))}
        block = MetadataNeighborhoodBlocking(g).block("doc::q", candidates)
        assert block == [str(i) for i in reversed(range(50))]

    def test_blocks_on_a_loaded_graph_equal_the_fitted_ones(self, tmp_path):
        # Blocking walks the graph's arrays: a memory-mapped load blocks as
        # the fitted pipeline does.
        from repro.datasets import ScenarioSize, generate_scenario

        scenario = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=3)
        fitted = TDMatch(TDMatchConfig.fast(), seed=7).fit(scenario.first, scenario.second)
        path = str(tmp_path / "index.tdm")
        fitted.save(path)
        loaded = TDMatch.load(path, mmap=True)
        queries = fitted.state.built.first_metadata.values()
        candidates = fitted.state.built.second_metadata
        blocks = []
        for pipeline in (fitted, loaded):
            blocking = MetadataNeighborhoodBlocking(pipeline.graph)
            blocks.append([blocking.block(label, candidates) for label in queries])
        assert blocks[0] == blocks[1]
        assert any(blocks[0])

    def test_unknown_query_label(self):
        blocker = MetadataNeighborhoodBlocking(graph_of([]))
        assert blocker.block("missing", {"a": "row::a"}) == []


class TestBlockedMatcher:
    @pytest.fixture()
    def setup(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        candidates = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        matcher = MetadataMatcher(["q1", "q2"], queries, ["a", "b", "c"], candidates)
        texts = {"a": "storm thriller", "b": "empire drama", "c": "moon comedy"}
        query_texts = {"q1": "a storm thriller tonight", "q2": "zzz nothing shared"}
        blocker = TextQueryBlocker(TokenBlocking().fit(texts), query_texts)
        return matcher, blocker

    @staticmethod
    def _match(setup):
        matcher, blocker = setup
        return matcher.match_with_stats(k=3, backend=BlockedTopK(blocker))

    def test_blocked_match_restricts_candidates(self, setup):
        rankings, _ = self._match(setup)
        assert rankings["q1"].ids() == ["a"]

    def test_fallback_to_full_ranking(self, setup):
        rankings, _ = self._match(setup)
        assert len(rankings["q2"]) == 3

    def test_statistics_reduction(self, setup):
        _, stats = self._match(setup)
        assert stats.scored_pairs == 1 + 3  # q1's block, q2's fallback
        assert stats.scored_pairs < stats.all_pairs
        assert 0.0 < stats.reduction_ratio <= 1.0
        assert stats.empty_blocks == 1


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "imdb_wt" in out and "audit" in out

    def test_end_to_end_tiny_run(self, capsys):
        code = cli.main(
            [
                "run", "--scenario", "corona_gen", "--size", "tiny", "--k", "5",
                "--num-walks", "4", "--walk-length", "8", "--vector-size", "32", "--epochs", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Match quality" in out
        assert "Stage timings" in out

    def test_parser_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["run", "--scenario", "bogus"])

    @pytest.mark.parametrize(
        "argv, override",
        [
            pytest.param(argv, override, id=" ".join(argv))
            for argv, override in [
                (["run", "--vector-size", "0"], {"word2vec__vector_size": 0}),
                (["run", "--epochs", "0"], {"word2vec__epochs": 0}),
                (["run", "--num-workers", "-1"], {"parallel__num_workers": -1}),
                (["run", "--num-walks", "0"], {"walks__num_walks": 0}),
                (["run", "--chunk-size", "0"], {"retrieval__chunk_size": 0}),
                (["run", "--k", "0"], None),
                (["fit-save", "--index", "unused.tdm", "--epochs", "0"], {"word2vec__epochs": 0}),
                (["query", "--index", "unused.tdm", "--k", "0"], None),
            ]
        ],
    )
    def test_invalid_values_rejected_before_fit(self, argv, override, monkeypatch, capsys):
        def no_fit(*_args, **_kwargs):
            raise AssertionError("a fit started despite an invalid value")

        monkeypatch.setattr(TDMatch, "fit", no_fit)
        monkeypatch.setattr(TDMatch, "load", no_fit)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
        if override is not None:
            # The same value through the section__field override path.
            with pytest.raises(ValueError):
                TDMatchConfig.fast(**override)
