"""Node-merging techniques (Section II-C of the paper).

Correctly merging data nodes shortens the paths between related metadata
nodes across corpora.  Three techniques are provided:

* **Stemming** — applied earlier, in :mod:`repro.text.preprocess`.
* **Numeric bucketing** — numeric data nodes are merged into equal-width
  buckets whose width follows the Freedman–Diaconis rule.
* **Embedding-based merging** — two data nodes are merged when the cosine
  similarity of their vectors in a pre-trained resource exceeds a threshold
  γ that is calibrated as the mean similarity over a synonym list (the paper
  uses 17K WordNet synonym pairs against Wikipedia2Vec and finds γ=0.57).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import cosine_similarity
from repro.graph.graph import MatchGraph, NodeKind
from repro.text.tokenizer import is_numeric_token, parse_numeric_token


@dataclass
class MergeReport:
    """What a merging pass did: the merged graph and each ``(keep, absorbed)`` pair."""

    technique: str
    graph: MatchGraph
    merged_pairs: List[Tuple[str, str]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Numeric bucketing
def freedman_diaconis_width(values: Sequence[float]) -> float:
    """Bucket width according to the Freedman–Diaconis rule.

    width = 2 * IQR / n^(1/3).  Falls back to the data range (single bucket)
    when the IQR is zero or there are fewer than two values.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        return max(float(arr.max() - arr.min()), 1.0) if arr.size else 1.0
    q75, q25 = np.percentile(arr, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        spread = float(arr.max() - arr.min())
        return spread if spread > 0 else 1.0
    return float(2.0 * iqr / (arr.size ** (1.0 / 3.0)))


class NumericBucketer:
    """Merges numeric data nodes into equal-width buckets whose width
    follows the Freedman–Diaconis rule on the graph's numeric values."""

    @staticmethod
    def bucket_index(value: float, width: float, origin: float) -> int:
        """The index of the equal-width bucket that contains ``value``."""
        return int(np.floor((value - origin) / width))

    @staticmethod
    def bucket_label(value: float, width: float, origin: float) -> str:
        """The canonical label of the bucket that contains ``value``.

        The label embeds the bucket *index* alongside repr-precision bounds,
        so two distinct buckets can never share a label: ``"%g"``-formatted
        bounds (6 significant digits) collapse for narrow buckets at large
        origins (e.g. width 0.001 near 1e7 renders both bounds as
        ``1e+07``), which used to silently merge distinct buckets.
        """
        index = NumericBucketer.bucket_index(value, width, origin)
        low = origin + index * width
        high = low + width
        return f"num[{low!r},{high!r})#{index}"

    def apply(self, graph: MatchGraph) -> MergeReport:
        """Merge the numeric data nodes of ``graph`` into bucket nodes.

        Each bucket of two or more members becomes one data node appended
        after the graph's nodes; its members' edges move to it and the
        members go.
        """
        numeric_nodes: List[Tuple[int, float]] = []
        for node_id, (label, kind) in enumerate(zip(graph.labels, graph.kinds)):
            if kind == NodeKind.DATA and is_numeric_token(label):
                numeric_nodes.append((node_id, parse_numeric_token(label)))
        if not numeric_nodes:
            return MergeReport(technique="bucketing", graph=graph)
        values = [v for _node_id, v in numeric_nodes]
        width = freedman_diaconis_width(values)
        if width <= 0:  # an IQR that underflows to zero
            width = 1.0
        origin = float(min(values))
        buckets: Dict[str, List[int]] = {}
        for node_id, value in numeric_nodes:
            buckets.setdefault(self.bucket_label(value, width, origin), []).append(node_id)
        merges: Dict[str, List[int]] = {}
        for bucket, members in buckets.items():
            if len(members) < 2:
                continue
            label = bucket
            while label in graph or label in merges:
                # A pre-existing node (an arbitrary text term, or a node of
                # another kind) already uses this label; merging into it
                # would silently rewire unrelated structure.  Rename.
                label += "~"
            merges[label] = members
        if not merges:
            return MergeReport(technique="bucketing", graph=graph)
        n, count = graph.num_nodes(), len(merges)
        grown = graph.append(list(merges), [NodeKind.DATA] * count, ["both"] * count, ["term"] * count)
        relabel = np.arange(n + count, dtype=np.int64)
        for offset, members in enumerate(merges.values()):
            relabel[members] = n + offset
        lo, hi = grown.edge_ids()
        return MergeReport(
            technique="bucketing",
            graph=grown.keep(relabel == np.arange(n + count), relabel[lo], relabel[hi]),
            merged_pairs=[
                (label, graph.labels[member]) for label, members in merges.items() for member in members
            ],
        )


# ----------------------------------------------------------------------
# Embedding-based merging (synonyms, acronyms, typos)
class EmbeddingMerger:
    """Merges data nodes whose pre-trained vectors are highly similar.

    Parameters
    ----------
    embeddings:
        Any object exposing ``vector(term) -> Optional[np.ndarray]`` — in this
        library, :class:`repro.embeddings.pretrained.PretrainedEmbeddings`.
    threshold:
        Cosine threshold γ; when None it must be calibrated with
        :meth:`calibrate_threshold` before :meth:`apply`.
    max_candidates:
        Safety cap on the number of candidate pairs examined (the candidate
        set is restricted to nodes sharing a token or a prefix, so this cap
        is rarely hit on realistic graphs).
    """

    def __init__(self, embeddings, threshold: Optional[float] = None, max_candidates: int = 200_000):
        self.embeddings = embeddings
        self.threshold = threshold
        self.max_candidates = max_candidates

    # -- calibration ----------------------------------------------------
    def calibrate_threshold(self, synonym_pairs: Iterable[Tuple[str, str]]) -> float:
        """Set γ to the mean cosine similarity over ``synonym_pairs``.

        Pairs for which either term has no pre-trained vector are skipped.
        """
        sims: List[float] = []
        for a, b in synonym_pairs:
            va = self.embeddings.vector(a)
            vb = self.embeddings.vector(b)
            if va is None or vb is None:
                continue
            sims.append(cosine_similarity(va, vb))
        if not sims:
            raise ValueError("no synonym pair had vectors in the pre-trained resource")
        self.threshold = float(np.mean(sims))
        return self.threshold

    # -- merging --------------------------------------------------------
    def apply(self, graph: MatchGraph) -> MergeReport:
        """Merge similar data nodes of ``graph`` (higher-degree node wins).

        Candidate pairs merge one after the other, each on the graph the
        earlier merges left, so the merges run on a working copy of the
        neighbour sets; the absorbed node's edges move to the kept one.
        """
        if self.threshold is None:
            raise ValueError("threshold γ is not set; call calibrate_threshold first")
        ids, labels = graph.ids, graph.labels
        indptr, indices = graph.indptr, graph.indices
        neighbors = [set(indices[indptr[i] : indptr[i + 1]].tolist()) for i in range(len(labels))]
        alive = np.ones(len(labels), dtype=bool)
        merged_pairs: List[Tuple[str, str]] = []
        for a, b in self._candidate_pairs(graph):
            ia, ib = ids[a], ids[b]
            if not (alive[ia] and alive[ib]):
                continue  # one of them was already absorbed
            va = self.embeddings.vector(a)
            vb = self.embeddings.vector(b)
            if va is None or vb is None:
                continue
            if cosine_similarity(va, vb) >= self.threshold:
                keep, absorb = (ia, ib) if len(neighbors[ia]) >= len(neighbors[ib]) else (ib, ia)
                for other in neighbors[absorb]:
                    neighbors[other].discard(absorb)
                    if other != keep:
                        neighbors[other].add(keep)
                        neighbors[keep].add(other)
                alive[absorb] = False
                merged_pairs.append((labels[keep], labels[absorb]))
        if not merged_pairs:
            return MergeReport(technique="embedding", graph=graph)
        edges = np.array(
            [(u, v) for u in np.flatnonzero(alive).tolist() for v in neighbors[u] if u < v],
            dtype=np.int64,
        ).reshape(-1, 2)
        return MergeReport(
            technique="embedding",
            graph=graph.keep(alive, edges[:, 0], edges[:, 1]),
            merged_pairs=merged_pairs,
        )

    def _candidate_pairs(self, graph: MatchGraph) -> List[Tuple[str, str]]:
        """Candidate node pairs: data nodes sharing a token or a 4-char prefix."""
        buckets: Dict[str, List[str]] = {}
        for label in graph.data_nodes():
            if is_numeric_token(label):
                continue
            # First-occurrence order: the buckets, and so the pairs, must not
            # follow the hash order of a set of strings.
            keys = dict.fromkeys(label.split())
            keys[label[:4]] = None
            for key in keys:
                buckets.setdefault(key, []).append(label)
        pairs: List[Tuple[str, str]] = []
        seen = set()
        for members in buckets.values():
            if len(members) < 2:
                continue
            members = sorted(members)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pair = (members[i], members[j])
                    if pair in seen:
                        continue
                    seen.add(pair)
                    pairs.append(pair)
                    if len(pairs) >= self.max_candidates:
                        return pairs
        return pairs
