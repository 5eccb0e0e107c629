"""Tests for repro.text.tokenizer."""

import pytest

from repro.text.tokenizer import (
    is_numeric_token,
    parse_numeric_token,
    tokenize,
)


class TestTokenizeFunction:
    def test_basic_words(self):
        assert tokenize("The Sixth Sense") == ["the", "sixth", "sense"]

    def test_punctuation_is_dropped(self):
        assert tokenize("Hello, world!") == ["hello", "world"]

    def test_numbers_are_kept(self):
        assert tokenize("released in 1999") == ["released", "in", "1999"]

    def test_decimal_numbers_survive(self):
        assert "8.6" in tokenize("rated 8.6 overall")

    def test_thousands_separator_number(self):
        assert "1,250" in tokenize("about 1,250 cases")

    def test_apostrophes_inside_words(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_smart_quotes_are_normalised(self):
        assert tokenize("it’s fine") == ["it's", "fine"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_non_string_input_is_coerced(self):
        assert tokenize(1999) == ["1999"]

    def test_unicode_dashes(self):
        assert tokenize("tension—filled") == ["tension", "filled"]


class TestNumericHelpers:
    @pytest.mark.parametrize("token", ["1999", "8.6", "1,250", "0"])
    def test_is_numeric_token_true(self, token):
        assert is_numeric_token(token)

    @pytest.mark.parametrize("token", ["abc", "", "12abc", "b2b"])
    def test_is_numeric_token_false(self, token):
        assert not is_numeric_token(token)

    def test_parse_numeric_token(self):
        assert parse_numeric_token("1,250") == 1250.0
        assert parse_numeric_token("8.6") == pytest.approx(8.6)
