"""Tests for n-gram generation and the preprocessing pipeline."""

import pytest

from repro.text.ngrams import generate_ngrams, ngram_terms
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.text.stopwords import STOP_WORDS


class TestNgrams:
    def test_unigrams_only(self):
        assert generate_ngrams(["a", "b", "c"], max_n=1) == ["a", "b", "c"]

    def test_bigrams_follow_unigrams(self):
        assert generate_ngrams(["a", "b", "c"], max_n=2) == [
            "a", "b", "c", "a b", "b c",
        ]

    def test_trigram_of_three_tokens(self):
        grams = generate_ngrams(["the", "sixth", "sense"], max_n=3)
        assert "the sixth sense" in grams
        assert len(grams) == 6

    def test_max_n_larger_than_sentence(self):
        grams = generate_ngrams(["a", "b"], max_n=5)
        assert grams == ["a", "b", "a b"]

    def test_empty_tokens(self):
        assert generate_ngrams([], max_n=3) == []

    def test_invalid_max_n_raises(self):
        with pytest.raises(ValueError):
            generate_ngrams(["a"], max_n=0)

    def test_ngram_terms_deduplicates(self):
        assert ngram_terms(["a", "a"], max_n=1) == ["a"]

    def test_ngram_terms_preserves_first_occurrence_order(self):
        assert ngram_terms(["b", "a", "b"], max_n=1) == ["b", "a"]


class TestPreprocessor:
    @pytest.fixture()
    def preprocessor(self):
        return Preprocessor()

    def test_stop_words_removed(self, preprocessor):
        tokens = preprocessor.tokens("the movie is great")
        assert "the" not in tokens and "is" not in tokens

    def test_stemming_applied(self, preprocessor):
        assert preprocessor.tokens("planning") == preprocessor.tokens("plan")

    def test_numbers_survive_preprocessing(self, preprocessor):
        assert "1999" in preprocessor.tokens("released 1999")

    def test_terms_include_ngrams(self, preprocessor):
        terms = preprocessor.terms("Sixth Sense")
        assert any(" " in t for t in terms)

    def test_terms_max_ngram_override(self, preprocessor):
        terms = preprocessor.terms("pulp fiction classic", max_ngram=1)
        assert all(" " not in t for t in terms)

    def test_terms_of_values_no_cross_cell_ngrams(self, preprocessor):
        terms = preprocessor.terms_of_values(["Pulp Fiction", "Tarantino"])
        assert "fiction tarantino" not in terms

    def test_terms_of_values_deduplicates(self, preprocessor):
        terms = preprocessor.terms_of_values(["drama", "drama"])
        assert terms.count("drama") == 1

    def test_no_stemming_config(self):
        preprocessor = Preprocessor(PreprocessConfig(apply_stemming=False))
        assert "planning" in preprocessor.tokens("planning")

    def test_one_letter_words_dropped(self):
        # MIN_TOKEN_LENGTH is 2: "x" goes, "ox" stays.
        preprocessor = Preprocessor(PreprocessConfig(apply_stemming=False))
        assert preprocessor.tokens("X ray of an ox") == ["ray", "ox"]

    def test_one_digit_numbers_kept(self):
        preprocessor = Preprocessor(PreprocessConfig(apply_stemming=False))
        assert preprocessor.tokens("in 4 days") == ["4", "days"]

    def test_tokens_lower_cased(self):
        preprocessor = Preprocessor(PreprocessConfig(apply_stemming=False))
        assert preprocessor.tokens("PULP Fiction by TARANTINO") == ["pulp", "fiction", "tarantino"]

    def test_no_stop_word_starts_with_a_digit(self):
        # tokens() keeps every token that starts with a digit unchecked.
        assert [word for word in STOP_WORDS if word[:1].isdigit()] == []

    def test_stem_cache_consistency(self, preprocessor):
        first = preprocessor.tokens("auditing auditing")
        second = preprocessor.tokens("auditing")
        assert set(first) == set(second)
