"""Tests for the synthetic scenario generators."""

import pytest

from repro.corpus.table import Table
from repro.corpus.taxonomy import Taxonomy
from repro.datasets import (
    SCENARIO_GENERATORS,
    ScenarioSize,
    generate_audit_scenario,
    generate_corona_scenario,
    generate_imdb_scenario,
    generate_politifact_scenario,
    generate_scenario,
    generate_snopes_scenario,
    generate_sts_scenario,
)
from repro.datasets.audit import gold_paths
from repro.datasets.base import MatchingScenario


TINY = ScenarioSize.tiny()


class TestScenarioSize:
    def test_presets_ordered(self):
        assert ScenarioSize.tiny().n_entities < ScenarioSize.small().n_entities
        assert ScenarioSize.small().n_entities < ScenarioSize.medium().n_entities


class TestImdbScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_imdb_scenario(TINY, seed=5)

    def test_structure(self, scenario):
        assert scenario.task == "text-to-data"
        assert isinstance(scenario.second, Table)
        assert len(scenario.second.column_names) == 13

    def test_two_reviews_per_movie(self, scenario):
        assert len(scenario.first) == 2 * TINY.n_entities

    def test_gold_points_to_existing_rows(self, scenario):
        scenario.validate()
        for matches in scenario.gold.values():
            assert len(matches) == 1

    def test_nt_variant_drops_title(self):
        nt = generate_imdb_scenario(TINY, seed=5, with_title=False)
        assert "title" not in nt.second.column_names
        assert len(nt.second.column_names) == 12

    def test_deterministic_given_seed(self):
        a = generate_imdb_scenario(TINY, seed=9)
        b = generate_imdb_scenario(TINY, seed=9)
        assert a.query_texts() == b.query_texts()
        assert a.gold == b.gold

    def test_different_seeds_differ(self):
        a = generate_imdb_scenario(TINY, seed=9)
        b = generate_imdb_scenario(TINY, seed=10)
        assert a.query_texts() != b.query_texts()

    def test_kb_contains_movie_relations(self, scenario):
        assert scenario.kb is not None and len(scenario.kb) > 0
        # At least one director has a directorOf relation to a title term.
        sample_row = scenario.second.rows[0]
        director = str(sample_row.value("director")).lower()
        assert scenario.kb.related(director)

    def test_reviews_mention_gold_movie_content(self, scenario):
        # Each review must share at least one informative token with its row.
        for doc in scenario.first:
            movie_id = next(iter(scenario.gold[doc.doc_id]))
            row = scenario.second[movie_id]
            row_tokens = set()
            for _col, value in row.non_null_items():
                row_tokens.update(str(value).lower().split())
            review_tokens = set(doc.text.lower().replace(".", " ").replace(",", " ").split())
            assert row_tokens & review_tokens

    def test_synonym_clusters_cover_people(self, scenario):
        assert any(key.startswith("person::") for key in scenario.synonym_clusters)


class TestCoronaScenario:
    def test_gen_split_structure(self):
        scenario = generate_corona_scenario(TINY, seed=3)
        assert scenario.task == "text-to-data"
        assert isinstance(scenario.second, Table)
        assert set(scenario.second.column_names) >= {"country", "month", "new_cases"}

    def test_usr_split_has_fewer_and_harder_claims(self):
        gen = generate_corona_scenario(TINY, seed=3, user_style=False)
        usr = generate_corona_scenario(TINY, seed=3, user_style=True)
        assert len(usr.first) <= len(gen.first)
        assert usr.name == "corona_usr"

    def test_usr_claims_may_match_two_rows(self):
        usr = generate_corona_scenario(ScenarioSize.small(), seed=3, user_style=True)
        assert any(len(matches) == 2 for matches in usr.gold.values())

    def test_numeric_values_present(self):
        scenario = generate_corona_scenario(TINY, seed=3)
        assert all(isinstance(row.value("new_cases"), int) for row in scenario.second)

    def test_validation_passes(self):
        generate_corona_scenario(TINY, seed=3).validate()


class TestAuditScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_audit_scenario(TINY, seed=7)

    def test_structure(self, scenario):
        assert scenario.task == "text-to-structured-text"
        assert isinstance(scenario.second, Taxonomy)

    def test_taxonomy_paths_within_paper_depth(self, scenario):
        taxonomy = scenario.second
        for node in taxonomy:
            assert 1 <= taxonomy.depth(node.node_id) <= 5

    def test_annotation_distribution(self, scenario):
        counts = [len(v) for v in scenario.gold.values()]
        assert min(counts) >= 1
        assert max(counts) >= 3  # some documents have several concepts

    def test_gold_concepts_are_specific(self, scenario):
        taxonomy = scenario.second
        for matches in scenario.gold.values():
            for concept in matches:
                assert taxonomy.depth(concept) >= 3

    def test_gold_paths_helper(self, scenario):
        paths = gold_paths(scenario)
        assert set(paths) == set(scenario.gold)
        first_doc = next(iter(paths))
        assert all(path[0] == "internal audit" for path in paths[first_doc])


class TestClaimScenarios:
    def test_snopes_longer_than_politifact(self):
        snopes = generate_snopes_scenario(TINY, seed=2)
        politifact = generate_politifact_scenario(TINY, seed=2)
        snopes_len = sum(len(t.split()) for t in snopes.query_texts().values()) / len(snopes.first)
        politifact_len = sum(len(t.split()) for t in politifact.query_texts().values()) / len(
            politifact.first
        )
        assert snopes_len > politifact_len

    def test_distractor_facts_exist(self):
        scenario = generate_snopes_scenario(TINY, seed=2)
        matched = set()
        for matches in scenario.gold.values():
            matched.update(matches)
        assert len(scenario.second) > len(matched)

    def test_text_to_text_task(self):
        assert generate_politifact_scenario(TINY, seed=2).task == "text-to-text"

    def test_validation_passes(self):
        generate_snopes_scenario(TINY, seed=2).validate()
        generate_politifact_scenario(TINY, seed=2).validate()


class TestStsScenario:
    def test_threshold_controls_gold_size(self):
        k2 = generate_sts_scenario(TINY, seed=4, threshold=2)
        k3 = generate_sts_scenario(TINY, seed=4, threshold=3)
        assert len(k3.gold) <= len(k2.gold)

    def test_pair_scores_recorded(self):
        scenario = generate_sts_scenario(TINY, seed=4)
        scores = scenario.extras["pair_scores"]
        assert set(scores.values()) <= set(range(6))

    def test_gold_respects_threshold(self):
        scenario = generate_sts_scenario(TINY, seed=4, threshold=3)
        scores = scenario.extras["pair_scores"]
        for left_id in scenario.gold:
            assert scores[left_id] >= 3

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            generate_sts_scenario(TINY, threshold=9)

    def test_identical_pairs_share_content(self):
        scenario = generate_sts_scenario(ScenarioSize.small(), seed=4, threshold=2)
        scores = scenario.extras["pair_scores"]
        candidates = scenario.candidate_texts()
        for left_id, score in scores.items():
            if score == 5:
                right_id = "r" + left_id[1:]
                assert scenario.first[left_id].text == candidates[right_id]


class TestRegistry:
    def test_all_registered_scenarios_generate(self):
        for name in SCENARIO_GENERATORS:
            scenario = generate_scenario(name, size=TINY)
            assert isinstance(scenario, MatchingScenario)
            scenario.validate()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            generate_scenario("unknown")

    def test_candidate_texts_by_corpus_type(self):
        imdb = generate_scenario("imdb_wt", size=TINY)
        audit = generate_scenario("audit", size=TINY)
        snopes = generate_scenario("snopes", size=TINY)
        assert "[COL]" in next(iter(imdb.candidate_texts().values()))
        assert "internal audit" in next(iter(audit.candidate_texts().values()))
        assert isinstance(next(iter(snopes.candidate_texts().values())), str)

    def test_summary_fields(self):
        scenario = generate_scenario("corona_gen", size=TINY)
        summary = scenario.summary()
        assert summary["queries"] == len(scenario.first)
        assert summary["task"] == "text-to-data"
