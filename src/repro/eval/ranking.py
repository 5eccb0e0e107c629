"""Ranking containers shared by the matchers and the metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple


@dataclass
class Ranking:
    """An ordered list of scored candidates for one query."""

    query_id: str
    candidates: List[Tuple[str, float]] = field(default_factory=list)

    def add(self, candidate_id: str, score: float) -> None:
        self.candidates.append((candidate_id, float(score)))

    def sort(self) -> "Ranking":
        """Sort by decreasing score (stable, so ties keep insertion order)."""
        self.candidates.sort(key=lambda pair: -pair[1])
        return self

    def ids(self, k: Optional[int] = None) -> List[str]:
        items = self.candidates if k is None else self.candidates[:k]
        return [cid for cid, _score in items]

    def top(self, k: int) -> List[Tuple[str, float]]:
        return self.candidates[:k]

    def __len__(self) -> int:
        return len(self.candidates)


class RankingSet:
    """Rankings for a set of queries (the output of one matching run)."""

    def __init__(self, rankings: Iterable[Ranking] = ()):
        self._rankings: Dict[str, Ranking] = {}
        for ranking in rankings:
            self.add(ranking)

    def add(self, ranking: Ranking) -> None:
        if ranking.query_id in self._rankings:
            raise ValueError(f"duplicate ranking for query {ranking.query_id!r}")
        self._rankings[ranking.query_id] = ranking

    def __getitem__(self, query_id: str) -> Ranking:
        return self._rankings[query_id]

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._rankings

    def __len__(self) -> int:
        return len(self._rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self._rankings.values())

    @property
    def query_ids(self) -> List[str]:
        return list(self._rankings)

    def as_id_lists(self) -> Dict[str, List[str]]:
        """query id → ordered candidate ids (what the metrics consume)."""
        return {qid: ranking.ids() for qid, ranking in self._rankings.items()}


GroundTruth = Mapping[str, Set[str]]
