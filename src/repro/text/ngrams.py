"""n-gram term generation (Section II-D of the paper).

Multi-token terms such as movie titles carry information that is lost when
each token becomes its own data node.  The paper therefore creates data nodes
for *every* n-gram of a text up to ``max_n`` tokens (default 3, calibrated on
Wikipedia article titles: ~99% have at most three tokens).  For "The Sixth
Sense" with n=3 the graph contains the terms ``six``, ``sense``, ``the six``,
``six sense``, and ``the six sense`` (after stemming / stop-word handling).
"""

from __future__ import annotations

from typing import List, Sequence

DEFAULT_MAX_NGRAM = 3


def generate_ngrams(tokens: Sequence[str], max_n: int = DEFAULT_MAX_NGRAM) -> List[str]:
    """Return all contiguous n-grams of ``tokens`` for n in 1..max_n.

    n-grams are joined with a single space.  Order follows increasing n and
    left-to-right position, and duplicates are preserved (the caller decides
    whether term multiplicity matters).

    >>> generate_ngrams(["the", "sixth", "sense"], max_n=2)
    ['the', 'sixth', 'sense', 'the sixth', 'sixth sense']
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    tokens = list(tokens)
    ngrams: List[str] = []
    for n in range(1, max_n + 1):
        if n > len(tokens):
            break
        for i in range(len(tokens) - n + 1):
            ngrams.append(" ".join(tokens[i : i + n]))
    return ngrams


def ngram_terms(tokens: Sequence[str], max_n: int = DEFAULT_MAX_NGRAM) -> List[str]:
    """Unique n-gram terms of ``tokens``, preserving first-occurrence order."""
    seen = set()
    ordered: List[str] = []
    for gram in generate_ngrams(tokens, max_n=max_n):
        if gram not in seen:
            seen.add(gram)
            ordered.append(gram)
    return ordered
