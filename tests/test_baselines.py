"""Tests for the baseline matchers (unsupervised and supervised)."""

import numpy as np
import pytest

from repro.baselines.bert_classifier import BertLargeClassifier
from repro.baselines.deepmatcher import DeepMatcherBaseline
from repro.baselines.ditto import DittoMatcher
from repro.baselines.doc2vec_baseline import Doc2VecMatcher
from repro.baselines.features import FEATURE_NAMES, PairFeatureExtractor
from repro.baselines.nn import LogisticRegression, MLPClassifier, TrainingConfig
from repro.baselines.rank import RankMatcher
from repro.baselines.sbert import SbertEncoder, SbertMatcher
from repro.baselines.supervised import train_test_split_queries
from repro.baselines.tapas import TapasMatcher
from repro.baselines.tfidf import BM25Matcher, TfIdfMatcher, TfIdfVectorizer
from repro.baselines.word2vec_baseline import Word2VecMatcher
from repro.corpus.table import Column, Table
from repro.embeddings.doc2vec import Doc2VecConfig
from repro.embeddings.word2vec import Word2VecConfig
from repro.eval.metrics import evaluate_rankings
from tests.hash_seeds import outputs_under_hash_seeds


@pytest.fixture(scope="module")
def claim_world():
    """Queries paraphrase one candidate each; perfect methods score MRR 1."""
    candidates = {
        "f1": "the governor says unemployment dropped by 12 percent in 2019",
        "f2": "the agency reports vaccine efficacy reached 90 percent in trials",
        "f3": "the ministry states carbon emissions increased by 8 percent last year",
        "f4": "the committee claims tuition costs doubled over the past decade",
        "f5": "the senator argues crime rates fell in every major city",
    }
    queries = {
        "q1": "did unemployment really drop 12 percent in 2019",
        "q2": "vaccine efficacy of 90 percent reported in trials",
        "q3": "carbon emissions rose about 8 percent last year",
        "q4": "tuition has doubled in ten years according to posts",
        "q5": "crime is falling in every major city says senator",
    }
    gold = {f"q{i}": {f"f{i}"} for i in range(1, 6)}
    return queries, candidates, gold


class TestNeuralSubstrate:
    def test_logistic_regression_learns_linearly_separable(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        model = LogisticRegression(TrainingConfig(epochs=80, learning_rate=0.5), seed=1).fit(x, y)
        accuracy = (model.predict(x) == y).mean()
        assert accuracy > 0.95

    def test_logistic_regression_validates_shapes(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3,)), np.zeros(3))
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), np.zeros(4))

    def test_logistic_regression_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((1, 2)))

    def test_mlp_learns_xor(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.repeat(x, 50, axis=0)
        y = (x[:, 0] != x[:, 1]).astype(float)
        model = MLPClassifier(hidden_size=16, config=TrainingConfig(epochs=400, learning_rate=0.5), seed=2)
        model.fit(x, y)
        accuracy = (model.predict(x) == y).mean()
        assert accuracy > 0.9

    def test_mlp_multilabel_output_shape(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        y = np.zeros((50, 3))
        y[:, 0] = 1
        model = MLPClassifier(hidden_size=8, n_outputs=3, seed=1).fit(x, y)
        probs = model.predict_proba(x)
        assert probs.shape == (50, 3)

    def test_mlp_label_width_mismatch(self):
        with pytest.raises(ValueError):
            MLPClassifier(n_outputs=2).fit(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)


class TestTfIdfAndBm25:
    def test_vectorizer_cosine_of_identical_docs(self):
        vec = TfIdfVectorizer().fit([["a", "b"], ["c"]])
        a = vec.transform_one(["a", "b"])
        assert TfIdfVectorizer.cosine(a, a) == pytest.approx(1.0)

    def test_vectorizer_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TfIdfVectorizer().transform_one(["a"])

    def test_tfidf_matcher_ranks_overlapping_first(self, claim_world):
        queries, candidates, gold = claim_world
        rankings = TfIdfMatcher().rank(queries, candidates, k=5)
        report = evaluate_rankings("tfidf", rankings, gold, ks=(1,))
        assert report.mrr > 0.8

    def test_bm25_matcher_quality(self, claim_world):
        queries, candidates, gold = claim_world
        rankings = BM25Matcher().rank(queries, candidates, k=5)
        report = evaluate_rankings("bm25", rankings, gold, ks=(1,))
        assert report.mrr > 0.8


class TestPairFeatures:
    def test_feature_vector_length(self, claim_world):
        queries, candidates, _gold = claim_world
        extractor = PairFeatureExtractor().fit(list(queries.values()) + list(candidates.values()))
        features = extractor.features(queries["q1"], candidates["f1"])
        assert features.shape == (len(FEATURE_NAMES),)

    def test_matching_pair_scores_higher_overlap(self, claim_world):
        queries, candidates, _gold = claim_world
        extractor = PairFeatureExtractor().fit(list(queries.values()) + list(candidates.values()))
        match = extractor.features(queries["q1"], candidates["f1"])
        non_match = extractor.features(queries["q1"], candidates["f2"])
        assert match[0] > non_match[0]  # tfidf cosine
        assert match[1] > non_match[1]  # jaccard

    def test_features_bounded(self, claim_world):
        queries, candidates, _gold = claim_world
        extractor = PairFeatureExtractor().fit(list(queries.values()) + list(candidates.values()))
        features = extractor.features(queries["q2"], candidates["f3"])
        assert np.all(features >= -1.0) and np.all(features <= 1.0)

    def test_unfitted_extractor_raises(self):
        with pytest.raises(RuntimeError):
            PairFeatureExtractor().features("a", "b")


class TestSbert:
    def test_encoder_returns_vectors(self):
        encoder = SbertEncoder()
        vectors = encoder.encode_texts(["the unemployment rate increased"])
        assert vectors.shape == (1, encoder.pretrained.dim) and vectors.any()

    def test_matcher_prefers_lexically_close_candidates(self, claim_world):
        queries, candidates, gold = claim_world
        rankings = SbertMatcher().rank(queries, candidates, k=5)
        report = evaluate_rankings("s-be", rankings, gold, ks=(1,))
        assert report.mrr > 0.5

    def test_score_matrix_shape(self, claim_world):
        queries, candidates, _gold = claim_world
        matrix = SbertMatcher().score_matrix(queries, candidates)
        assert matrix.shape == (len(queries), len(candidates))


class TestEmbeddingBaselines:
    def test_word2vec_matcher_runs(self, claim_world):
        queries, candidates, gold = claim_world
        matcher = Word2VecMatcher(Word2VecConfig(vector_size=32, epochs=3, window=5), seed=1)
        rankings = matcher.rank(queries, candidates, k=5)
        assert len(rankings) == len(queries)
        assert all(len(rankings[q]) == 5 for q in queries)

    def test_doc2vec_matcher_runs(self, claim_world):
        queries, candidates, gold = claim_world
        matcher = Doc2VecMatcher(Doc2VecConfig(vector_size=24, epochs=10), seed=1)
        rankings = matcher.rank(queries, candidates, k=3)
        assert len(rankings) == len(queries)
        assert all(len(rankings[q]) == 3 for q in queries)


class TestSupervisedBaselines:
    def test_train_test_split_fractions(self):
        train, test = train_test_split_queries([f"q{i}" for i in range(10)], 0.6, seed=1)
        assert len(train) == 6 and len(test) == 4
        assert not set(train) & set(test)

    def test_train_test_split_validates_fraction(self):
        with pytest.raises(ValueError):
            train_test_split_queries(["a", "b"], 1.5)

    def test_rank_matcher_learns_to_rank(self, claim_world):
        queries, candidates, gold = claim_world
        matcher = RankMatcher(seed=3).fit(queries, candidates, gold)
        rankings = matcher.rank(queries, candidates, k=5)
        report = evaluate_rankings("rank*", rankings, gold, ks=(1,))
        assert report.mrr > 0.6

    def test_ditto_matcher_learns(self, claim_world):
        queries, candidates, gold = claim_world
        matcher = DittoMatcher(seed=3).fit(queries, candidates, gold)
        rankings = matcher.rank(queries, candidates, k=5)
        report = evaluate_rankings("ditto*", rankings, gold, ks=(1,))
        assert report.mrr > 0.5

    def test_supervised_rank_before_fit_raises(self, claim_world):
        queries, candidates, _gold = claim_world
        with pytest.raises(RuntimeError):
            DittoMatcher().rank(queries, candidates)

    def test_fit_without_gold_raises(self, claim_world):
        queries, candidates, _gold = claim_world
        with pytest.raises(ValueError):
            DittoMatcher(seed=1).fit(queries, candidates, {})

    def test_rank_restricted_to_query_subset(self, claim_world):
        queries, candidates, gold = claim_world
        matcher = DittoMatcher(seed=3).fit(queries, candidates, gold, train_queries=["q1", "q2", "q3"])
        rankings = matcher.rank(queries, candidates, k=2, query_ids=["q4", "q5"])
        assert set(rankings.query_ids) == {"q4", "q5"}

    def test_training_sets_ignore_hash_seed(self):
        # Gold matches are sets of strings. With several per query (audit
        # has up to five), a sampler that followed their hash order would
        # attach the negative draws to other positives in each process.
        outputs = outputs_under_hash_seeds(_HASH_SEED_PROBE)
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]


#: Fits the sampler-fed baselines that need no table on ``audit`` and
#: prints each test query's ranking with exact scores, one line per method.
_HASH_SEED_PROBE = """
from repro.baselines.deepmatcher import DeepMatcherBaseline
from repro.baselines.ditto import DittoMatcher
from repro.baselines.rank import RankMatcher
from repro.baselines.supervised import train_test_split_queries
from repro.datasets import ScenarioSize, generate_scenario

size = ScenarioSize(n_entities=8, n_queries=12, n_distractors=4)
sc = generate_scenario("audit", size=size, seed=11)
queries, candidates = sc.query_texts(), sc.candidate_texts()
train, test = train_test_split_queries(list(sc.gold), 0.6, seed=3)
results = {
    name: matcher.fit(queries, candidates, sc.gold, train_queries=train).rank(
        queries, candidates, k=10, query_ids=test
    )
    for name, matcher in (
        ("rank*", RankMatcher(seed=3)),
        ("ditto*", DittoMatcher(seed=3)),
        ("deep-m*", DeepMatcherBaseline(None, seed=3)),
    )
}
for name, rankings in results.items():
    print(name, [(r.query_id, [(c, repr(s)) for c, s in r.candidates]) for r in rankings])
"""


class TestTableAwareBaselines:
    @pytest.fixture()
    def table_world(self):
        table = Table("movies", [Column("title"), Column("director"), Column("genre")])
        table.add_record("m1", title="Silent Storm", director="Bergman", genre="thriller")
        table.add_record("m2", title="Golden Empire", director="Leone", genre="drama")
        table.add_record("m3", title="Paper Moon", director="Kaur", genre="comedy")
        queries = {
            "q1": "Bergman directs the thriller Silent Storm",
            "q2": "Leone made the drama Golden Empire",
            "q3": "Kaur delivers the comedy Paper Moon",
        }
        candidates = {row.row_id: " ".join(str(v) for _c, v in row.non_null_items()) for row in table}
        gold = {f"q{i}": {f"m{i}"} for i in range(1, 4)}
        return table, queries, candidates, gold

    def test_tapas_matcher(self, table_world):
        table, queries, candidates, gold = table_world
        matcher = TapasMatcher(table, seed=2).fit(queries, candidates, gold)
        rankings = matcher.rank(queries, candidates, k=3)
        report = evaluate_rankings("tapas*", rankings, gold, ks=(1,))
        assert report.mrr > 0.5

    def test_deepmatcher_baseline(self, table_world):
        table, queries, candidates, gold = table_world
        matcher = DeepMatcherBaseline(table, seed=2).fit(queries, candidates, gold)
        rankings = matcher.rank(queries, candidates, k=3)
        assert len(rankings) == 3

    def test_deepmatcher_without_table_uses_sequence_features(self, table_world):
        _table, queries, candidates, gold = table_world
        matcher = DeepMatcherBaseline(seed=2).fit(queries, candidates, gold)
        rankings = matcher.rank(queries, candidates, k=2)
        assert len(rankings) == 3


class TestBertLargeClassifier:
    def test_multilabel_concept_ranking(self):
        documents = {
            "d1": "planning and scoping for the engagement timeline",
            "d2": "fraud irregularity and whistleblower reports",
            "d3": "planning the audit timeline and materiality",
            "d4": "investigating fraud and misstatement evidence",
        }
        gold = {"d1": {"c_plan"}, "d2": {"c_fraud"}, "d3": {"c_plan"}, "d4": {"c_fraud"}}
        classifier = BertLargeClassifier(n_hash_features=128, hidden_size=16, seed=1)
        classifier.fit(documents, gold, concept_ids=["c_plan", "c_fraud"])
        rankings = classifier.rank(documents, k=1)
        assert rankings["d1"].ids(1) == ["c_plan"]
        assert rankings["d2"].ids(1) == ["c_fraud"]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BertLargeClassifier().rank({"d": "text"})

    def test_fit_without_annotations_raises(self):
        with pytest.raises(ValueError):
            BertLargeClassifier().fit({"d": "text"}, {}, concept_ids=["c"])

    def test_invalid_hash_features(self):
        with pytest.raises(ValueError):
            BertLargeClassifier(n_hash_features=4)


# ----------------------------------------------------------------------
# One ranking contract for every method: ties ordered by candidate position.
_TOPICS = [
    ("governor", "unemployment dropped twelve percent during the recession"),
    ("agency", "vaccine efficacy reached ninety percent in clinical trials"),
    ("ministry", "carbon emissions increased eight percent across factories"),
    ("committee", "tuition costs doubled at public universities"),
    ("senator", "violent crime fell in every major city"),
    ("mayor", "housing prices soared beyond regional wages"),
]
_OFF_TOPIC = [
    "ancient pottery exhibit opens downtown",
    "orchestra rehearses baroque concerto tonight",
    "gardeners prune roses before frost",
    "volcano eruption grounds northern flights",
    "chess grandmaster wins blitz tournament",
    "bakery sells sourdough loaves daily",
    "marathon runners train along riverside trails",
]


@pytest.fixture(scope="module")
def tie_world():
    """Each topic's row appears three times (equal texts score equally) and
    no off-topic row shares a term with any query (BM25 and TF-IDF score
    them 0), so every method meets runs of equal scores."""
    table = Table("claims", [Column("speaker"), Column("claim")])
    for copy in range(3):
        for t, (speaker, claim) in enumerate(_TOPICS):
            table.add_record(f"t{t}_{copy}", speaker=speaker, claim=claim)
    for o, text in enumerate(_OFF_TOPIC * 2):
        table.add_record(f"o{o}", speaker="curator", claim=text)
    candidates = {row.row_id: " ".join(str(v) for _c, v in row.non_null_items()) for row in table}
    queries = {
        f"q{t}": f"the {speaker} claimed that {claim}" for t, (speaker, claim) in enumerate(_TOPICS)
    }
    gold = {f"q{t}": {f"t{t}_0"} for t in range(len(_TOPICS))}
    return table, queries, candidates, gold


_RANKERS = {
    "tfidf": lambda table, q, c, gold, k: TfIdfMatcher().rank(q, c, k=k),
    "bm25": lambda table, q, c, gold, k: BM25Matcher().rank(q, c, k=k),
    "rank*": lambda table, q, c, gold, k: RankMatcher(seed=3).fit(q, c, gold).rank(q, c, k=k),
    "ditto*": lambda table, q, c, gold, k: DittoMatcher(seed=3).fit(q, c, gold).rank(q, c, k=k),
    "deep-m*": lambda table, q, c, gold, k: DeepMatcherBaseline(table, seed=3).fit(q, c, gold).rank(q, c, k=k),
    "tapas*": lambda table, q, c, gold, k: TapasMatcher(table, seed=3).fit(q, c, gold).rank(q, c, k=k),
    "l-be*": lambda table, q, c, gold, k: BertLargeClassifier(n_hash_features=64, hidden_size=8, seed=3)
    .fit(q, gold, concept_ids=list(c))
    .rank(q, k=k),
    "w2vec": lambda table, q, c, gold, k: Word2VecMatcher(
        Word2VecConfig(vector_size=16, epochs=2, window=5), seed=1
    ).rank(q, c, k=k),
    "d2vec": lambda table, q, c, gold, k: Doc2VecMatcher(
        Doc2VecConfig(vector_size=16, epochs=3), seed=1
    ).rank(q, c, k=k),
    "s-be": lambda table, q, c, gold, k: SbertMatcher().rank(q, c, k=k),
}


@pytest.mark.parametrize("method", sorted(_RANKERS))
def test_ranking_orders_ties_by_candidate_position(tie_world, method):
    table, queries, candidates, gold = tie_world
    rankings = _RANKERS[method](table, queries, candidates, gold, len(candidates))
    position = {candidate_id: i for i, candidate_id in enumerate(candidates)}
    assert rankings.query_ids == list(queries)
    for ranking in rankings:
        assert len(ranking) == len(candidates)
        keys = [(-score, position[candidate_id]) for candidate_id, score in ranking.candidates]
        assert keys == sorted(keys), ranking.query_id
