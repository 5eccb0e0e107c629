"""Word tokenizer used for both text documents and table cells.

The paper tokenises on word boundaries, keeps numbers (they are later merged
by bucketing), and lower-cases everything.  We additionally normalise unicode
punctuation so that user-submitted sentences (CoronaCheck "Usr") and clean
generated sentences tokenize identically.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import List

_WORD_RE = re.compile(r"[A-Za-z]+(?:'[A-Za-z]+)?|\d+(?:[.,]\d+)*")

_PUNCT_TRANSLATION = {
    "‘": "'",
    "’": "'",
    "“": '"',
    "”": '"',
    "–": "-",
    "—": "-",
    " ": " ",
}


def _normalise(text: str) -> str:
    """Normalise unicode and smart punctuation to plain ASCII equivalents."""
    text = unicodedata.normalize("NFKC", text)
    for src, dst in _PUNCT_TRANSLATION.items():
        text = text.replace(src, dst)
    return text


def tokenize(text: str, lowercase: bool = True) -> List[str]:
    """Split ``text`` into word and number tokens.

    >>> tokenize("The Sixth Sense, 1999!")
    ['the', 'sixth', 'sense', '1999']
    """
    if not isinstance(text, str):
        text = str(text)
    text = _normalise(text)
    tokens = _WORD_RE.findall(text)
    if lowercase:
        tokens = [t.lower() for t in tokens]
    return tokens


@dataclass
class Tokenizer:
    """Configurable tokenizer.

    Parameters
    ----------
    lowercase:
        Lower-case tokens (default: True).
    min_token_length:
        Drop tokens shorter than this many characters (numbers are kept
        regardless so that years and counts survive).
    keep_numbers:
        Whether numeric tokens are kept at all.
    """

    lowercase: bool = True
    min_token_length: int = 1
    keep_numbers: bool = True

    def __call__(self, text: str) -> List[str]:
        return self.tokenize(text)

    def tokenize(self, text: str) -> List[str]:
        tokens = tokenize(text, lowercase=self.lowercase)
        result: List[str] = []
        for token in tokens:
            if token[0].isdigit():
                if self.keep_numbers:
                    result.append(token)
                continue
            if len(token) >= self.min_token_length:
                result.append(token)
        return result


def is_numeric_token(token: str) -> bool:
    """Return True when the token represents a number (int or decimal)."""
    if not token:
        return False
    cleaned = token.replace(",", "")
    try:
        float(cleaned)
    except ValueError:
        return False
    return True


def parse_numeric_token(token: str) -> float:
    """Parse a numeric token produced by :func:`tokenize` into a float."""
    return float(token.replace(",", ""))
