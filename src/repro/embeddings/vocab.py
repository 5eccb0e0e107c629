"""Vocabulary for the embedding models.

Maps tokens to contiguous integer ids, keeps frequency counts, and builds
the unigram^0.75 distribution used by negative sampling.  A corpus arrives
as integer ids into a label list (:func:`intern_sentences` gives token
strings that form, and :class:`IdCorpus` holds id sentences back to back);
:meth:`Vocabulary.from_counts` orders its labels by ``(-count, label)``
when a vocabulary is built and when one grows.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class IdCorpus(NamedTuple):
    """Integer-id sentences back to back: one flat ``ids`` array and each
    sentence's ``lengths``.

    Word2Vec reads it as it is (``train(corpus, labels=...)``), so a walk
    corpus need not live as one array per walk, ~120 bytes of array header
    each on top of its ids.
    """

    ids: np.ndarray
    lengths: np.ndarray

    @classmethod
    def concatenate(cls, sentences: Iterable[Sequence[int]]) -> "IdCorpus":
        """The corpus of ``sentences`` (integer id arrays, e.g. the walks of
        ``iter_walks``); ``lengths`` is int64, and ``ids`` keeps the
        sentences' dtype (int64 when there is none)."""
        sentences = list(sentences)
        lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
        ids = np.concatenate(sentences) if sentences else np.empty(0, dtype=np.int64)
        return cls(ids, lengths)


def intern_sentences(
    sentences: Iterable[Iterable[str]],
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Token-string sentences as ``(flat ids, lengths, labels)``.

    Labels are numbered in first-seen order; ``flat`` (int64) holds every
    sentence's ids back to back and ``lengths`` each sentence's length.
    """
    index: Dict[str, int] = {}
    flat: List[int] = []
    lengths: List[int] = []
    for sentence in sentences:
        before = len(flat)
        flat.extend(index.setdefault(token, len(index)) for token in sentence)
        lengths.append(len(flat) - before)
    return np.asarray(flat, dtype=np.int64), np.asarray(lengths, dtype=np.int64), list(index)


class Vocabulary:
    """Token ↔ id mapping with counts and a negative-sampling distribution."""

    def __init__(self, min_count: int = 1):
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.min_count = min_count
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        self._counts: List[int] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_sentences(cls, sentences: Iterable[Sequence[str]], min_count: int = 1) -> "Vocabulary":
        """Build a vocabulary from tokenised sentences."""
        flat, _lengths, labels = intern_sentences(sentences)
        return cls.from_counts(labels, np.bincount(flat, minlength=len(labels)), min_count)

    @classmethod
    def from_counts(
        cls,
        labels: Sequence[str],
        counts: np.ndarray,
        min_count: int = 1,
        base: Optional["Vocabulary"] = None,
    ) -> "Vocabulary":
        """The vocabulary of ``labels`` with corpus ``counts`` (one per label).

        Labels counted at least ``min_count`` times enter in ``(-count,
        label)`` order, so ids are deterministic.  With ``base`` it grows
        instead: base's tokens keep their ids and add their counts, and new
        labels follow in the same order with no ``min_count`` cut (an
        incremental document's metadata label must receive a vector).
        """
        threshold = 1 if base is not None else min_count
        if base is None:
            base = cls(min_count=min_count)
        totals = list(base._counts)
        count_of = counts.tolist()
        new: List[int] = []
        for i in np.flatnonzero(counts >= threshold).tolist():
            idx = base.id_of(labels[i])
            if idx is None:
                new.append(i)
            else:
                totals[idx] += count_of[i]
        new.sort(key=lambda i: (-count_of[i], labels[i]))
        return cls.from_tokens_and_counts(
            base.tokens + [labels[i] for i in new],
            totals + [count_of[i] for i in new],
            min_count=base.min_count,
        )

    @classmethod
    def from_tokens_and_counts(
        cls,
        tokens: Sequence[str],
        counts: Sequence[int],
        min_count: int = 1,
    ) -> "Vocabulary":
        """Rebuild a vocabulary from parallel token/count lists.

        Ids are assigned in list order, which is what lets a persisted
        model (see :mod:`repro.serving`) restore the exact token → row
        correspondence of its embedding matrices.  ``min_count`` is stored
        but not re-applied — the lists are taken as already filtered.
        Raises :class:`ValueError` when the lists differ in length or a
        token repeats (merging it would shift every later token's row).
        """
        if len(tokens) != len(counts):
            raise ValueError("tokens and counts must have the same length")
        vocab = cls(min_count=min_count)
        vocab._id_to_token = list(tokens)
        vocab._token_to_id = {token: i for i, token in enumerate(vocab._id_to_token)}
        if len(vocab._token_to_id) != len(vocab._id_to_token):
            raise ValueError("tokens must be unique")
        vocab._counts = [int(count) for count in counts]
        return vocab

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> Optional[int]:
        return self._token_to_id.get(token)

    def ids_of(self, tokens: Sequence[str]) -> np.ndarray:
        """The int64 ids of ``tokens``, ``-1`` for out-of-vocabulary ones."""
        lookup = map(self._token_to_id.get, tokens, repeat(-1))
        return np.fromiter(lookup, dtype=np.int64, count=len(tokens))

    def count_of(self, token: str) -> int:
        idx = self._token_to_id.get(token)
        return self._counts[idx] if idx is not None else 0

    @property
    def tokens(self) -> List[str]:
        return list(self._id_to_token)

    def counts_array(self) -> np.ndarray:
        return np.asarray(self._counts, dtype=np.float64)

    def encode(self, sentence: Sequence[str]) -> List[int]:
        """Map a sentence to ids, dropping out-of-vocabulary tokens."""
        out = []
        for token in sentence:
            idx = self._token_to_id.get(token)
            if idx is not None:
                out.append(idx)
        return out

    # ------------------------------------------------------------------
    def negative_sampling_distribution(self, power: float = 0.75) -> np.ndarray:
        """Unigram distribution raised to ``power`` and normalised."""
        counts = self.counts_array()
        if counts.size == 0:
            raise ValueError("empty vocabulary")
        weights = counts ** power
        return weights / weights.sum()

    def subsample_keep_probabilities(self, threshold: float = 1e-3) -> np.ndarray:
        """Word2Vec frequent-word subsampling keep probabilities.

        keep(w) = min(1, sqrt(t / f(w)) + t / f(w)) with f the corpus
        frequency of w.
        """
        counts = self.counts_array()
        total = counts.sum()
        if total == 0:
            raise ValueError("empty vocabulary")
        freqs = counts / total
        with np.errstate(divide="ignore"):
            keep = np.sqrt(threshold / freqs) + threshold / freqs
        return np.minimum(keep, 1.0)
