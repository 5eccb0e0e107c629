"""Porter stemmer.

A self-contained implementation of the Porter (1980) stemming algorithm.
Stemming serves two purposes in the paper: it normalises terms before data
nodes are created, and it *merges* data nodes that are inflections of the
same word (e.g. "planning" and "Plan" in the audit taxonomy example of
Figure 2), which shortens the paths between related metadata nodes.
"""

from __future__ import annotations


_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        if i == 0:
            return True
        return not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Return m, the number of VC sequences in the stem."""
    m = 0
    i = 0
    n = len(stem)
    # Skip initial consonants.
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        # Skip vowels.
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        # Skip consonants.
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    if len(word) < 2:
        return False
    return word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return word[-1] not in "wxy"
    return False


class PorterStemmer:
    """Porter stemming algorithm (five rule steps)."""

    def stem(self, word: str) -> str:
        """Return the stem of ``word`` (expects a lower-case token)."""
        if len(word) <= 2:
            return word
        word = word.lower()
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- step 1a ----------------------------------------------------------
    @staticmethod
    def _step1a(word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    # -- step 1b ----------------------------------------------------------
    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if _measure(stem) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed"):
            stem = word[:-2]
            if _contains_vowel(stem):
                word = stem
                flag = True
        elif word.endswith("ing"):
            stem = word[:-3]
            if _contains_vowel(stem):
                word = stem
                flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if _ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if _measure(word) == 1 and _ends_cvc(word):
                return word + "e"
        return word

    # -- step 1c ----------------------------------------------------------
    @staticmethod
    def _step1c(word: str) -> str:
        if word.endswith("y") and _contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    # -- step 2 -----------------------------------------------------------
    _STEP2_SUFFIXES = [
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ]

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    # -- step 3 -----------------------------------------------------------
    _STEP3_SUFFIXES = [
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ]

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    # -- step 4 -----------------------------------------------------------
    _STEP4_SUFFIXES = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 1:
                    return stem
                return word
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and _measure(stem) > 1:
                return stem
        return word

    # -- step 5 -----------------------------------------------------------
    @staticmethod
    def _step5a(word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = _measure(stem)
            if m > 1:
                return stem
            if m == 1 and not _ends_cvc(stem):
                return stem
        return word

    @staticmethod
    def _step5b(word: str) -> str:
        if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word


_DEFAULT_STEMMER = PorterStemmer()


def stem(word: str) -> str:
    """Stem ``word`` with a module-level :class:`PorterStemmer` instance."""
    return _DEFAULT_STEMMER.stem(word)
