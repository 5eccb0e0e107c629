"""Synonym lexicon (WordNet stand-in).

Used in two places:

* as the calibration set for the γ threshold of embedding-based node
  merging (Section II-C — the paper uses 17K WordNet synonym pairs);
* as an external resource for expanding concept graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


@dataclass
class SynonymLexicon:
    """Groups of interchangeable terms (synsets)."""

    synsets: Dict[str, List[str]] = field(default_factory=dict)

    def add_synset(self, name: str, members: Sequence[str]) -> None:
        cleaned = [m.strip().lower() for m in members if m and m.strip()]
        if len(cleaned) < 2:
            raise ValueError(f"synset {name!r} needs at least two members")
        self.synsets[name] = cleaned

    def pairs(self) -> List[Tuple[str, str]]:
        """All within-synset pairs — the γ calibration set."""
        out: List[Tuple[str, str]] = []
        for members in self.synsets.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.append((members[i], members[j]))
        return out

    def __len__(self) -> int:
        return len(self.synsets)


def build_synonym_lexicon(clusters: Mapping[str, Iterable[str]]) -> SynonymLexicon:
    """Build a lexicon from cluster-name → members."""
    lexicon = SynonymLexicon()
    for name, members in clusters.items():
        members = list(members)
        if len(members) >= 2:
            lexicon.add_synset(name, members)
    return lexicon
