"""Tests for stop words and the Porter stemmer."""

import pytest

from repro.text.stemmer import PorterStemmer, stem
from repro.text.stopwords import STOP_WORDS


class TestStopWords:
    def test_common_words_are_stop_words(self):
        for word in ("the", "and", "is", "of", "to"):
            assert word in STOP_WORDS

    def test_content_words_are_not_stop_words(self):
        for word in ("audit", "movie", "willis", "planning"):
            assert word not in STOP_WORDS

    def test_stop_word_set_is_lowercase(self):
        assert all(w == w.lower() for w in STOP_WORDS)

    def test_stop_word_list_is_reasonably_sized(self):
        assert 100 < len(STOP_WORDS) < 400


class TestPorterStemmer:
    @pytest.fixture()
    def stemmer(self):
        return PorterStemmer()

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("conflated", "conflat"),
            ("happy", "happi"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("hopefulness", "hope"),
            ("formality", "formal"),
            ("sensitivity", "sensit"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electricity", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("activate", "activ"),
            ("effective", "effect"),
            ("probate", "probat"),
            ("controlling", "control"),
        ],
    )
    def test_known_stems(self, stemmer, word, expected):
        assert stemmer.stem(word) == expected

    def test_planning_and_plan_share_a_stem(self, stemmer):
        # The Figure 2 example of the paper: stemming merges these nodes.
        assert stemmer.stem("planning") == stemmer.stem("plan")

    def test_short_words_are_unchanged(self, stemmer):
        assert stemmer.stem("is") == "is"
        assert stemmer.stem("go") == "go"

    def test_stemming_is_idempotent_for_common_words(self, stemmer):
        for word in ("auditing", "matching", "reviews", "controls"):
            once = stemmer.stem(word)
            assert stemmer.stem(once) == stemmer.stem(once)

    def test_module_level_stem_matches_class(self, stemmer):
        assert stem("auditing") == stemmer.stem("auditing")

    def test_uppercase_input_is_lowercased(self, stemmer):
        assert stemmer.stem("Planning") == stemmer.stem("planning")
