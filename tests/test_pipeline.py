"""Tests for the end-to-end TDMatch pipeline."""

import pytest

from repro.core.config import (
    CompressionConfig,
    ExpansionConfig,
    MergeConfig,
    TDMatchConfig,
)
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.pipeline import TDMatch
from repro.corpus.documents import TextCorpus
from repro.corpus.table import Column, Table
from repro.embeddings.pretrained import build_synthetic_pretrained
from repro.eval.metrics import evaluate_rankings
from repro.kb.knowledge_base import InMemoryKnowledgeBase
from tests.hash_seeds import outputs_under_hash_seeds


def build_movie_world():
    """A small text-to-data world with unambiguous gold matches."""
    table = Table(
        "movies",
        [Column("title"), Column("director"), Column("actor"), Column("genre")],
    )
    rows = [
        ("m1", "Silent Storm", "Nora Bergman", "Victor Petrov", "thriller"),
        ("m2", "Golden Empire", "Oscar Leone", "Iris Novak", "drama"),
        ("m3", "Paper Moon Hour", "Helen Kaur", "Martin Rossi", "comedy"),
        ("m4", "Crimson Tide Hollow", "David Chan", "Laura Silva", "mystery"),
    ]
    for row_id, title, director, actor, genre in rows:
        table.add_record(row_id, title=title, director=director, actor=actor, genre=genre)

    reviews = TextCorpus(name="reviews")
    gold = {}
    review_texts = {
        "r1": "Silent Storm is a tense thriller and Bergman directs Petrov brilliantly",
        "r2": "Golden Empire sees Leone guide Novak through a sweeping drama",
        "r3": "Paper Moon Hour is a gentle comedy with Rossi at his best under Kaur",
        "r4": "Crimson Tide Hollow lets Silva shine in Chan's twisting mystery",
    }
    for doc_id, text in review_texts.items():
        reviews.add_text(doc_id, text)
        gold[doc_id] = {f"m{doc_id[1]}"}
    return reviews, table, gold


@pytest.fixture(scope="module")
def fitted_pipeline():
    reviews, table, gold = build_movie_world()
    pipeline = TDMatch(TDMatchConfig.fast(), seed=11)
    pipeline.fit(reviews, table)
    return pipeline, gold


#: Fits a tiny ``imdb_wt`` pipeline, plain and with MSP compression, and
#: prints per fit the sha256 of the vocabulary and the stacked embedding
#: block, then every query's ranking with exact scores.
_HASH_SEED_PROBE = """
import hashlib
import numpy as np
from repro.core.config import CompressionConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario

sc = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=11)
for compression in (None, CompressionConfig(enabled=True, method="msp", ratio=1.0)):
    config = TDMatchConfig.fast()
    if compression is not None:
        config.compression = compression
    pipeline = TDMatch(config, seed=3).fit(sc.first, sc.second)
    model = pipeline.state.model
    digest = hashlib.sha256("\\n".join(model.vocab.tokens).encode())
    digest.update(np.concatenate((model._input_vectors, model._output_vectors)).tobytes())
    print(digest.hexdigest(), model.stats.pairs)
    rankings = pipeline.match_result(k=5).rankings
    print([(r.query_id, [(c, repr(s)) for c, s in r.candidates]) for r in rankings])
"""


#: Fits one graph stage that draws, merges or grows over labels (named by
#: ``STAGE``) and prints the graph's size, the sha256 of the vocabulary and
#: embedding block, and every ranking with exact scores.  The merges run on
#: ``corona_usr``, the embedding merge over synthetic vectors: a direction
#: seeded by a term's first two characters plus 0.6x noise seeded by the
#: whole term.
_STAGE_HASH_SEED_PROBE = """
import hashlib
import numpy as np
from repro.core.config import CompressionConfig, ExpansionConfig, MergeConfig, TDMatchConfig
from repro.core.pipeline import TDMatch
from repro.datasets import ScenarioSize, generate_scenario
from repro.utils.rng import derive_rng

class PrefixVectors:
    def vector(self, term):
        base = derive_rng(3, "prefix", term[:2]).standard_normal(16)
        return base + 0.6 * derive_rng(3, "term", term).standard_normal(16)

config = TDMatchConfig.fast()
if STAGE in ("embedding-merge", "bucket-numeric"):
    sc = generate_scenario("corona_usr", size=ScenarioSize.small(), seed=3)
    if STAGE == "embedding-merge":
        config.merge = MergeConfig(pretrained=PrefixVectors(), gamma=0.6)
    else:
        config.merge = MergeConfig(bucket_numeric=True)
else:
    sc = generate_scenario("imdb_wt", size=ScenarioSize.tiny(), seed=3)
    if STAGE == "expansion":
        config.expansion = ExpansionConfig(resource=sc.kb)
    else:
        config.compression = CompressionConfig(enabled=True, method=STAGE, ratio=0.5)
pipeline = TDMatch(config, seed=3).fit(sc.first, sc.second)
model = pipeline.state.model
digest = hashlib.sha256("\\n".join(model.vocab.tokens).encode())
digest.update(np.concatenate((model._input_vectors, model._output_vectors)).tobytes())
print(pipeline.graph.num_nodes(), pipeline.graph.num_edges(), digest.hexdigest())
rankings = pipeline.match_result(k=5).rankings
print([(r.query_id, [(c, repr(s)) for c, s in r.candidates]) for r in rankings])
"""


class TestHashSeed:
    def test_fit_ignores_hash_seed(self):
        # Labels are interned strings in sets and dicts all through the graph
        # build; a stage that followed their hash order would give another
        # vocabulary, block or ranking in each process.
        outputs = outputs_under_hash_seeds(_HASH_SEED_PROBE)
        assert outputs[0].count("\n") == 4
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "stage",
        ["random-node", "random-edge", "embedding-merge", "ssum", "expansion", "bucket-numeric"],
    )
    def test_label_stage_ignores_hash_seed(self, stage):
        # The random baselines draw over node ids and edge id pairs, and the
        # embedding merge takes each label's keys in first-occurrence order;
        # drawing from a set of labels would follow its hash order.  SSuM,
        # expansion and bucketing build their graphs from masks and appended
        # ids in node order.
        outputs = outputs_under_hash_seeds(f"STAGE = {stage!r}\n" + _STAGE_HASH_SEED_PROBE)
        assert outputs[0].count("\n") == 2
        assert outputs[0] == outputs[1]


class TestFitAndMatch:
    def test_match_quality_on_unambiguous_world(self, fitted_pipeline):
        pipeline, gold = fitted_pipeline
        rankings = pipeline.match(k=4)
        report = evaluate_rankings("w-rw", rankings, gold, ks=(1,))
        assert report.mrr >= 0.75

    def test_matcher_rows_cover_all_documents(self, fitted_pipeline):
        pipeline, _gold = fitted_pipeline
        matcher = pipeline.matcher("first")
        assert sorted(matcher.query_ids) == ["r1", "r2", "r3", "r4"]
        assert sorted(matcher.candidate_ids) == ["m1", "m2", "m3", "m4"]
        size = pipeline.config.word2vec.vector_size
        assert matcher.query_matrix.shape == matcher.candidate_matrix.shape == (4, size)

    def test_match_from_second_side(self, fitted_pipeline):
        pipeline, _gold = fitted_pipeline
        rankings = pipeline.match(k=2, query_side="second")
        assert set(rankings.query_ids) == {"m1", "m2", "m3", "m4"}

    def test_match_result_wrapper(self, fitted_pipeline):
        pipeline, _gold = fitted_pipeline
        result = pipeline.match_result(k=3)
        assert result.k == 3 and result.query_side == "first"
        assert len(result.rankings) == 4

    def test_timings_recorded(self, fitted_pipeline):
        pipeline, _gold = fitted_pipeline
        timings = pipeline.timings.as_dict()
        for stage in ("graph_build", "walks", "word2vec"):
            assert timings.get(stage, 0) > 0

    def test_invalid_side_rejected(self, fitted_pipeline):
        pipeline, _gold = fitted_pipeline
        with pytest.raises(ValueError):
            pipeline.matcher("third")
        with pytest.raises(ValueError):
            pipeline.match(query_side="third")


class TestValidation:
    def test_unfitted_pipeline_raises(self):
        with pytest.raises(NotFittedError):
            TDMatch().match()

    def test_empty_corpus_rejected(self):
        reviews, table, _gold = build_movie_world()
        with pytest.raises(PipelineError):
            TDMatch().fit(TextCorpus(), table)

    def test_wrong_corpus_type_rejected(self):
        reviews, _table, _gold = build_movie_world()
        with pytest.raises(PipelineError):
            TDMatch().fit(reviews, ["not", "a", "corpus"])


class TestOptionalStages:
    def test_expansion_stage_runs(self):
        reviews, table, gold = build_movie_world()
        kb = InMemoryKnowledgeBase()
        kb.add_relation("bergman", "directorOf", "silent storm")
        kb.add_relation("petrov", "starringOf", "silent storm")
        config = TDMatchConfig.fast()
        config.expansion = ExpansionConfig(resource=kb)
        pipeline = TDMatch(config, seed=5).fit(reviews, table)
        assert pipeline.state.expansion is not None
        assert pipeline.state.expansion.edges_added >= 1

    def test_compression_stage_replaces_graph(self):
        reviews, table, _gold = build_movie_world()
        config = TDMatchConfig.fast()
        config.compression = CompressionConfig(enabled=True, method="msp", ratio=0.5)
        pipeline = TDMatch(config, seed=5).fit(reviews, table)
        assert pipeline.state.compression is not None
        assert pipeline.graph is pipeline.state.compression.graph

    def test_all_compression_methods_run(self):
        reviews, table, _gold = build_movie_world()
        for method in ("msp", "ssp", "ssum", "random-node", "random-edge"):
            config = TDMatchConfig.fast()
            config.compression = CompressionConfig(enabled=True, method=method, ratio=0.5)
            pipeline = TDMatch(config, seed=5).fit(reviews, table)
            assert pipeline.state.compression.method.startswith(method)

    def test_each_stage_graph_replaces_the_last(self):
        reviews, table, _gold = build_movie_world()
        kb = InMemoryKnowledgeBase()
        kb.add_relation("bergman", "directorOf", "silent storm")
        kb.add_relation("petrov", "starringOf", "silent storm")
        config = TDMatchConfig.fast()
        config.merge = MergeConfig(bucket_numeric=True)
        config.expansion = ExpansionConfig(resource=kb)
        pipeline = TDMatch(config, seed=5).fit(reviews, table)
        state = pipeline.state
        assert state.expansion.nodes_before == state.merge_reports[-1].graph.num_nodes()
        assert pipeline.graph is state.expansion.graph
        assert pipeline.model.vocab.tokens  # walks ran on the expanded graph
        config.compression = CompressionConfig(enabled=True, method="ssum", ratio=0.5)
        pipeline = TDMatch(config, seed=5).fit(reviews, table)
        assert pipeline.state.compression.nodes_before == pipeline.state.expansion.nodes_after
        assert pipeline.graph is pipeline.state.compression.graph

    def test_numeric_bucketing_stage(self):
        table = Table("stats", [Column("country"), Column("cases", dtype="numeric")])
        table.add_record("s1", country="italy", cases=100)
        table.add_record("s2", country="spain", cases=102)
        table.add_record("s3", country="france", cases=900)
        claims = TextCorpus()
        claims.add_text("c1", "italy reported 100 cases")
        claims.add_text("c2", "france reported 900 cases")
        config = TDMatchConfig.fast()
        config.merge = MergeConfig(bucket_numeric=True)
        pipeline = TDMatch(config, seed=5).fit(claims, table)
        [report] = [r for r in pipeline.state.merge_reports if r.technique == "bucketing"]
        assert sorted(absorbed for _bucket, absorbed in report.merged_pairs) == ["100", "102"]

    def test_embedding_merge_stage_with_calibration(self):
        reviews, table, _gold = build_movie_world()
        clusters = {"petrov": ["victor petrov", "petrov"]}
        pretrained = build_synthetic_pretrained(clusters)
        config = TDMatchConfig.fast()
        config.merge = MergeConfig(
            pretrained=pretrained,
            synonym_pairs=[("victor petrov", "petrov")],
        )
        pipeline = TDMatch(config, seed=5).fit(reviews, table)
        assert any(r.technique == "embedding" for r in pipeline.state.merge_reports)

    def test_embedding_merge_without_calibration_raises(self):
        reviews, table, _gold = build_movie_world()
        config = TDMatchConfig.fast()
        config.merge = MergeConfig(pretrained=build_synthetic_pretrained())
        with pytest.raises(PipelineError):
            TDMatch(config, seed=5).fit(reviews, table)

    def test_same_seed_reproduces_rankings(self):
        reviews, table, _gold = build_movie_world()
        r1 = TDMatch(TDMatchConfig.fast(), seed=21).fit(reviews, table).match(k=4).as_id_lists()
        r2 = TDMatch(TDMatchConfig.fast(), seed=21).fit(reviews, table).match(k=4).as_id_lists()
        assert r1 == r2
