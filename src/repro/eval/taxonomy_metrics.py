"""Exact and Node scores for the text-to-structured-text task (Table III).

The audit scenario matches documents to taxonomy concepts.  Because
different taxonomy nodes can carry the same label, the comparison is done on
root→node *paths*:

* **Exact score** — a predicted path counts only if it equals a gold path.
* **Node score** — partial credit: after removing the two most general
  levels (the root and its children), the score of two paths is
  ``|intersection| / max(|p1'|, |p2'|)`` (formula (1) of the paper); a
  prediction is scored against its best-matching gold path.

Both are aggregated into precision / recall / F1 over the top-k predictions
per document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Set, Tuple


@dataclass
class PrecisionRecallF1:
    """A precision / recall / F-score triple."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


Path = Tuple[str, ...]


def _truncate_general_levels(path: Sequence[str], general_levels: int = 2) -> Path:
    """Remove the ``general_levels`` most general nodes of a root→node path."""
    return tuple(path[general_levels:])


def node_score(path1: Sequence[str], path2: Sequence[str], general_levels: int = 2) -> float:
    """Formula (1): intersection over max length after truncation.

    Paths shorter than the number of general levels truncate to empty; two
    empty truncated paths score 0 (nothing specific was matched).
    """
    p1 = _truncate_general_levels(path1, general_levels)
    p2 = _truncate_general_levels(path2, general_levels)
    if not p1 and not p2:
        return 0.0
    intersection = len(set(p1) & set(p2))
    maximum = max(len(p1), len(p2))
    return intersection / maximum if maximum else 0.0


def _per_document_exact(predicted: Sequence[Path], gold: Set[Path]) -> PrecisionRecallF1:
    if not predicted and not gold:
        return PrecisionRecallF1(0.0, 0.0)
    correct = sum(1 for p in predicted if p in gold)
    precision = correct / len(predicted) if predicted else 0.0
    recall = correct / len(gold) if gold else 0.0
    return PrecisionRecallF1(precision, recall)


def _per_document_node(
    predicted: Sequence[Path], gold: Set[Path], general_levels: int
) -> PrecisionRecallF1:
    if not predicted or not gold:
        return PrecisionRecallF1(0.0, 0.0)
    # Precision: every prediction scored against its closest gold path.
    precision = sum(
        max(node_score(pred, g, general_levels) for g in gold) for pred in predicted
    ) / len(predicted)
    # Recall: every gold path scored against its closest prediction.
    recall = sum(
        max(node_score(g, pred, general_levels) for pred in predicted) for g in gold
    ) / len(gold)
    return PrecisionRecallF1(precision, recall)


def _aggregate(per_doc: List[PrecisionRecallF1]) -> PrecisionRecallF1:
    if not per_doc:
        return PrecisionRecallF1(0.0, 0.0)
    precision = sum(s.precision for s in per_doc) / len(per_doc)
    recall = sum(s.recall for s in per_doc) / len(per_doc)
    return PrecisionRecallF1(precision, recall)


def exact_scores(
    predictions: Mapping[str, Sequence[Sequence[str]]],
    gold: Mapping[str, Sequence[Sequence[str]]],
    k: int,
) -> PrecisionRecallF1:
    """Exact path P/R/F over all documents, using the top-k predictions."""
    per_doc = []
    for doc_id, gold_paths in gold.items():
        gold_set = {tuple(p) for p in gold_paths}
        predicted = [tuple(p) for p in predictions.get(doc_id, [])][:k]
        per_doc.append(_per_document_exact(predicted, gold_set))
    return _aggregate(per_doc)


def node_scores(
    predictions: Mapping[str, Sequence[Sequence[str]]],
    gold: Mapping[str, Sequence[Sequence[str]]],
    k: int,
    general_levels: int = 2,
) -> PrecisionRecallF1:
    """Node-score P/R/F over all documents, using the top-k predictions."""
    per_doc = []
    for doc_id, gold_paths in gold.items():
        gold_set = {tuple(p) for p in gold_paths}
        predicted = [tuple(p) for p in predictions.get(doc_id, [])][:k]
        per_doc.append(_per_document_node(predicted, gold_set, general_levels))
    return _aggregate(per_doc)
