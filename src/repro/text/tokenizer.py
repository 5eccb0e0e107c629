"""Word tokenizer used for both text documents and table cells.

The paper tokenises on word boundaries, keeps numbers (they are later merged
by bucketing), and lower-cases everything.  We additionally normalise unicode
punctuation so that user-submitted sentences (CoronaCheck "Usr") and clean
generated sentences tokenize identically.
"""

from __future__ import annotations

import re
import unicodedata
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


def tokenize(text: str) -> List[str]:
    """Split ``text`` into lower-cased word and number tokens.

    >>> tokenize("The Sixth Sense, 1999!")
    ['the', 'sixth', 'sense', '1999']
    """
    if not isinstance(text, str):
        text = str(text)
    return [t.lower() for t in _WORD_RE.findall(_normalise(text))]


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
