"""Tests for the evaluation substrate: rankings, metrics, taxonomy scores, reports."""

import pytest

from repro.eval.metrics import (
    average_precision_at_k,
    evaluate_rankings,
    has_positive_at_k,
    mean_average_precision_at_k,
    mean_has_positive_at_k,
    mean_reciprocal_rank,
    reciprocal_rank,
)
from repro.eval.ranking import Ranking, RankingSet
from repro.eval.report import format_quality_table, format_table
from repro.eval.taxonomy_metrics import (
    PrecisionRecallF1,
    exact_scores,
    node_score,
    node_scores,
)


class TestRanking:
    def test_sort_by_score(self):
        ranking = Ranking("q")
        ranking.add("a", 0.2)
        ranking.add("b", 0.9)
        ranking.sort()
        assert ranking.ids() == ["b", "a"]

    def test_ids_with_k(self):
        ranking = Ranking("q", candidates=[("a", 3.0), ("b", 2.0), ("c", 1.0)])
        assert ranking.ids(2) == ["a", "b"]
        assert ranking.top(1) == [("a", 3.0)]

    def test_ranking_set_duplicate_query_rejected(self):
        rankings = RankingSet([Ranking("q")])
        with pytest.raises(ValueError):
            rankings.add(Ranking("q"))

    def test_ranking_set_accessors(self):
        rankings = RankingSet([Ranking("q1", [("a", 1.0)]), Ranking("q2", [("b", 1.0)])])
        assert len(rankings) == 2
        assert "q1" in rankings
        assert rankings["q1"].ids() == ["a"]
        assert set(rankings.query_ids) == {"q1", "q2"}

    def test_as_id_lists(self):
        rankings = RankingSet(
            [Ranking("q1", [("a", 2.0), ("b", 1.0)]), Ranking("q2", [("c", 1.0)])]
        )
        assert rankings.as_id_lists() == {"q1": ["a", "b"], "q2": ["c"]}


class TestRankingMetrics:
    def test_reciprocal_rank(self):
        assert reciprocal_rank(["x", "gold", "y"], {"gold"}) == pytest.approx(0.5)
        assert reciprocal_rank(["gold"], {"gold"}) == 1.0
        assert reciprocal_rank(["x", "y"], {"gold"}) == 0.0

    def test_average_precision_at_k_single_relevant(self):
        assert average_precision_at_k(["x", "gold"], {"gold"}, 5) == pytest.approx(0.5)

    def test_average_precision_at_k_multiple_relevant(self):
        ranked = ["g1", "x", "g2"]
        # precision at hits: 1/1 and 2/3, denominator min(2, 5) = 2
        expected = (1.0 + 2.0 / 3.0) / 2
        assert average_precision_at_k(ranked, {"g1", "g2"}, 5) == pytest.approx(expected)

    def test_average_precision_truncation(self):
        assert average_precision_at_k(["x", "x2", "gold"], {"gold"}, 2) == 0.0

    def test_average_precision_no_relevant(self):
        assert average_precision_at_k(["a"], set(), 5) == 0.0

    def test_average_precision_invalid_k(self):
        with pytest.raises(ValueError):
            average_precision_at_k(["a"], {"a"}, 0)

    def test_has_positive_at_k(self):
        assert has_positive_at_k(["x", "gold"], {"gold"}, 2) == 1.0
        assert has_positive_at_k(["x", "gold"], {"gold"}, 1) == 0.0

    def test_mean_metrics_over_queries(self):
        rankings = {"q1": ["gold1", "x"], "q2": ["x", "y"]}
        gold = {"q1": {"gold1"}, "q2": {"gold2"}}
        assert mean_reciprocal_rank(rankings, gold) == pytest.approx(0.5)
        assert mean_average_precision_at_k(rankings, gold, 2) == pytest.approx(0.5)
        assert mean_has_positive_at_k(rankings, gold, 2) == pytest.approx(0.5)

    def test_missing_query_counts_as_zero(self):
        gold = {"q1": {"g"}, "q2": {"g"}}
        rankings = {"q1": ["g"]}
        assert mean_reciprocal_rank(rankings, gold) == pytest.approx(0.5)

    def test_evaluate_rankings_report(self):
        rankings = RankingSet(
            [Ranking("q1", [("g", 2.0), ("x", 1.0)]), Ranking("q2", [("x", 2.0), ("g", 1.0)])]
        )
        gold = {"q1": {"g"}, "q2": {"g"}}
        report = evaluate_rankings("test", rankings, gold, ks=(1, 2))
        assert report.method == "test"
        assert report.mrr == pytest.approx(0.75)
        assert report.has_positive_at[2] == 1.0
        as_dict = report.as_dict()
        assert "map@1" in as_dict and "haspositive@2" in as_dict

    def test_perfect_and_worst_case_bounds(self):
        gold = {"q": {"g"}}
        perfect = evaluate_rankings("p", {"q": ["g"]}, gold, ks=(1,))
        worst = evaluate_rankings("w", {"q": ["x", "y"]}, gold, ks=(1,))
        assert perfect.mrr == 1.0 and worst.mrr == 0.0


class TestTaxonomyMetrics:
    def test_node_score_formula_example(self):
        # The example from the paper: r1: a→b→c, r2: a→b→c→d.
        r1 = ["a", "b", "c"]
        r2 = ["a", "b", "c", "d"]
        assert node_score(r1, r2) == pytest.approx(0.5)

    def test_node_score_identical_paths(self):
        assert node_score(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_node_score_disjoint_specific_parts(self):
        assert node_score(["a", "b", "c"], ["a", "b", "d"]) == 0.0

    def test_node_score_both_too_general(self):
        assert node_score(["a", "b"], ["a", "b"]) == 0.0

    def test_exact_scores_precision_recall(self):
        gold = {"d1": [["root", "x", "c1"], ["root", "x", "c2"]]}
        predictions = {"d1": [["root", "x", "c1"], ["root", "x", "c3"]]}
        scores = exact_scores(predictions, gold, k=2)
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(0.5)
        assert scores.f1 == pytest.approx(0.5)

    def test_exact_scores_k_truncation(self):
        gold = {"d1": [["root", "x", "c1"]]}
        predictions = {"d1": [["root", "x", "c9"], ["root", "x", "c1"]]}
        assert exact_scores(predictions, gold, k=1).recall == 0.0
        assert exact_scores(predictions, gold, k=2).recall == 1.0

    def test_node_scores_partial_credit(self):
        gold = {"d1": [["root", "general", "risk", "register"]]}
        predictions = {"d1": [["root", "general", "risk", "exposure"]]}
        scores = node_scores(predictions, gold, k=1)
        assert 0.0 < scores.precision < 1.0

    def test_node_scores_missing_prediction(self):
        gold = {"d1": [["root", "x", "c1"]]}
        scores = node_scores({}, gold, k=1)
        assert scores.precision == 0.0 and scores.recall == 0.0

    def test_precision_recall_f1_zero_division(self):
        assert PrecisionRecallF1(0.0, 0.0).f1 == 0.0


class TestReportFormatting:
    def test_format_table_alignment_and_floats(self):
        rows = [{"method": "w-rw", "mrr": 0.853}, {"method": "s-be", "mrr": 0.254}]
        text = format_table(rows, title="Table I")
        assert "Table I" in text
        assert "0.853" in text and "w-rw" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_format_table_infers_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_format_quality_table(self):
        rankings = RankingSet([Ranking("q", [("g", 1.0)])])
        report = evaluate_rankings("w-rw", rankings, {"q": {"g"}}, ks=(1,))
        text = format_quality_table([report], ks=(1,))
        assert "MAP@1" in text and "w-rw" in text
