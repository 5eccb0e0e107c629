"""End-to-end pre-processing: tokenize → remove stop words → stem → n-grams.

This module turns raw strings (text sentences, paragraphs, table cell
values) into the list of *terms* that become data nodes in the graph
(Section II of the paper).

:class:`TermInterner` is the bulk-construction entry point: it memoises the
whole pipeline per distinct input value and hands terms out as dense int
ids, so a cell value that repeats across ten thousand rows is tokenised,
stemmed and n-gram'd exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.text.ngrams import DEFAULT_MAX_NGRAM, ngram_terms
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOP_WORDS
from repro.text.tokenizer import tokenize

#: Alphabetic tokens shorter than this are dropped.  Numbers of any length
#: stay, so that years and counts survive to numeric bucketing.
MIN_TOKEN_LENGTH = 2


@dataclass
class PreprocessConfig:
    """Configuration of the pre-processing stage.

    Tokens are always lower-cased, and stop words and alphabetic tokens
    under :data:`MIN_TOKEN_LENGTH` characters are dropped.

    Parameters
    ----------
    max_ngram:
        Maximum number of tokens per term (paper default: 3).
    apply_stemming:
        Stem tokens with the Porter stemmer; stemming also acts as the first
        node-merging technique of Section II-C.
    """

    max_ngram: int = DEFAULT_MAX_NGRAM
    apply_stemming: bool = True

    def __post_init__(self) -> None:
        if self.max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")


@dataclass
class Preprocessor:
    """Stateless text-to-terms transformer with a small memoisation cache."""

    config: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self) -> None:
        self._stemmer = PorterStemmer()
        self._stem_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def tokens(self, text: str) -> List[str]:
        """Raw tokens of ``text`` after stop-word removal and stemming."""
        # No stop word starts with a digit.
        tokens = [
            t for t in tokenize(text)
            if t[0].isdigit() or (len(t) >= MIN_TOKEN_LENGTH and t not in STOP_WORDS)
        ]
        if self.config.apply_stemming:
            tokens = [self._stem(t) for t in tokens]
        return tokens

    def terms(self, text: str, max_ngram: Optional[int] = None) -> List[str]:
        """All unique n-gram terms of ``text`` (the graph's data nodes)."""
        n = self.config.max_ngram if max_ngram is None else max_ngram
        return ngram_terms(self.tokens(text), max_n=n)

    def terms_of_values(
        self, values: Sequence[str], max_ngram: Optional[int] = None
    ) -> List[str]:
        """Terms of a sequence of values (e.g. the cells of a tuple).

        Each value is pre-processed independently so that n-grams never span
        two different cells.
        """
        seen = set()
        ordered: List[str] = []
        for value in values:
            for term in self.terms(value, max_ngram=max_ngram):
                if term not in seen:
                    seen.add(term)
                    ordered.append(term)
        return ordered

    # ------------------------------------------------------------------
    def _stem(self, token: str) -> str:
        if token[0].isdigit():
            return token
        cached = self._stem_cache.get(token)
        if cached is None:
            cached = self._stemmer.stem(token)
            self._stem_cache[token] = cached
        return cached


class TermInterner:
    """Value-level memo over a :class:`Preprocessor`, emitting dense int ids.

    Every distinct input string runs through tokenize → stem → n-grams
    exactly once; the resulting terms are interned so that downstream code
    (filtering, graph emission, the graph's node ids) can operate on int
    arrays and only translate back to strings at the boundary.

    Ids are dense and assigned in first-intern order, so ``terms[i]`` is the
    term with id ``i``.  The arrays returned by :meth:`term_ids` are cached —
    treat them as read-only.
    """

    #: Default `reset_if_larger_than` bounds for persistent use (see
    #: GraphBuilder): caps both the entry count and — because memo keys are
    #: the raw input strings, which for text corpora are whole documents —
    #: the accumulated key bytes a long-lived interner can retain.
    DEFAULT_MAX_CACHED_VALUES = 500_000
    DEFAULT_MAX_CACHED_CHARS = 64_000_000

    def __init__(self, preprocessor: Preprocessor):
        self.preprocessor = preprocessor
        self._terms: List[str] = []
        self._ids: Dict[str, int] = {}
        self._value_cache: Dict[str, np.ndarray] = {}
        self._cached_chars = 0

    def __len__(self) -> int:
        return len(self._terms)

    def reset(self) -> None:
        """Drop all interned terms and the value memo.

        Ids restart from zero, so cached arrays from before the reset must
        not be mixed with arrays interned after it — only call between
        independent uses (the bulk graph builder resets between builds).
        """
        self._terms = []
        self._ids = {}
        self._value_cache = {}
        self._cached_chars = 0

    def reset_if_larger_than(
        self,
        max_cached_values: int = DEFAULT_MAX_CACHED_VALUES,
        max_cached_chars: int = DEFAULT_MAX_CACHED_CHARS,
    ) -> bool:
        """Reset when the value memo outgrew either bound.

        Bounds the memory of a persistently reused interner: a sweep over
        ever-changing corpora otherwise retains every document string it
        has ever seen.  Returns True when a reset happened.
        """
        if len(self._value_cache) > max_cached_values or self._cached_chars > max_cached_chars:
            self.reset()
            return True
        return False

    @property
    def terms(self) -> List[str]:
        """The id → term table (do not mutate)."""
        return self._terms

    def id_of(self, term: str) -> int:
        """Intern ``term`` and return its dense id."""
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        new_id = len(self._terms)
        self._ids[term] = new_id
        self._terms.append(term)
        return new_id

    def term_ids(self, text: str) -> np.ndarray:
        """Interned term ids of ``text``, memoised per distinct value."""
        ids = self._value_cache.get(text)
        if ids is None:
            # Inlined interning: this is the hottest loop of bulk graph
            # construction, so no per-term method call.
            ids_map = self._ids
            table = self._terms
            out = []
            for term in self.preprocessor.terms(text):
                term_id = ids_map.get(term)
                if term_id is None:
                    term_id = len(table)
                    ids_map[term] = term_id
                    table.append(term)
                out.append(term_id)
            ids = np.array(out, dtype=np.int32)
            self._value_cache[text] = ids
            self._cached_chars += len(text)
        return ids

    def decode(self, ids: Sequence[int]) -> List[str]:
        """Translate an id sequence back to term strings."""
        terms = self._terms
        return [terms[int(i)] for i in ids]
