"""Configuration objects of the TDmatch pipeline.

The defaults follow the paper's default configuration:

* graph construction with Intersect filtering and n-grams up to 3 tokens;
* 100 random walks of length 30 per node (reducible for small graphs);
* Word2Vec Skip-gram with window 3 for text-to-data tasks, CBOW with window
  15 for text-only tasks;
* expansion and compression disabled unless a knowledge base / ratio is
  supplied.

Every section validates itself in ``__post_init__``.  The factory
classmethods take ``section__field=value`` overrides and rebuild each
touched section, so an overridden value is validated exactly like one
passed to the section's constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.embeddings.word2vec import Word2VecConfig
from repro.graph.builder import GraphBuilderConfig
from repro.graph.walks import RandomWalkConfig
from repro.parallel.config import ParallelConfig

@dataclass
class MergeConfig:
    """Node-merging options (Section II-C).

    Parameters
    ----------
    bucket_numeric:
        Merge numeric data nodes with equal-width buckets, whose width
        follows the Freedman–Diaconis rule.
    pretrained:
        A pre-trained embedding resource for synonym/typo merging; None
        disables embedding-based merging.
    gamma:
        Cosine threshold; None calibrates it from ``synonym_pairs``.
    synonym_pairs:
        Calibration pairs for γ (ignored when ``gamma`` is given).
    """

    bucket_numeric: bool = False
    pretrained: Optional[object] = None
    gamma: Optional[float] = None
    synonym_pairs: Optional[list] = None

    @property
    def merge_embeddings(self) -> bool:
        return self.pretrained is not None


@dataclass
class ExpansionConfig:
    """Graph expansion options (Algorithm 2): every relation the resource
    knows is added, then the sinks are removed."""

    resource: Optional[object] = None

    @property
    def enabled(self) -> bool:
        return self.resource is not None


@dataclass
class CompressionConfig:
    """Graph compression options (Algorithm 3).

    ``method`` is one of "msp", "ssp", "ssum", "random-node", "random-edge";
    ``ratio`` is β for MSP/SSP, the target size ratio for SSuM, or the keep
    ratio for the random samplers.  ``enabled`` defaults to False.
    """

    enabled: bool = False
    method: str = "msp"
    ratio: float = 0.5

    def __post_init__(self) -> None:
        valid = {"msp", "ssp", "ssum", "random-node", "random-edge"}
        if self.method not in valid:
            raise ValueError(f"unknown compression method {self.method!r}; valid: {sorted(valid)}")
        if self.ratio <= 0:
            raise ValueError("compression ratio must be positive")


@dataclass
class RetrievalConfig:
    """Matching-step retrieval options (Section IV-B; see :mod:`repro.retrieval`).

    ``backend`` is "dense" (exact chunked all-pairs top-k) or "blocked"
    (score only the candidates within two hops of the query's metadata
    node in the match graph; a query with an empty block scores every
    candidate).  Token blocking needs the corpus texts, so it is passed as
    a ready-made blocker to ``TDMatch.match(blocker=...)`` instead.
    ``chunk_size`` bounds dense scoring memory at ``chunk_size ×
    n_candidates`` scores.  Scores keep the embeddings' float64 precision.
    """

    backend: str = "dense"
    chunk_size: int = 1024

    def __post_init__(self) -> None:
        if self.backend not in ("dense", "blocked"):
            raise ValueError(f"unknown retrieval backend {self.backend!r}; valid: ['blocked', 'dense']")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass
class ServingConfig:
    """Persistent-index serving options (see :mod:`repro.serving`).

    ``mmap`` makes :meth:`TDMatch.load` open the embedding matrices as
    read-only memory maps by default, so N query processes serving the same
    index share the pages instead of each materialising a copy.  The
    index keeps Word2Vec's output matrix, which warm-start fine-tuning of
    the loaded index needs.
    """

    mmap: bool = False


@dataclass
class IncrementalConfig:
    """Incremental-fit options (``TDMatch.add_documents`` and friends).

    A delta restarts ``walks.num_walks`` walks from each new node and each
    of its direct neighbours, and fine-tunes Word2Vec on them with the
    pipeline's ``word2vec`` epochs and learning rate.

    Parameters
    ----------
    freeze_distant:
        Restore the embedding rows of nodes *outside* the touched
        neighbourhood after fine-tuning (default).  Delta walks still pass
        through distant nodes, and letting a few local epochs drag those
        rows degrades the rankings of unrelated queries (catastrophic
        interference); freezing them confines the update to the delta's
        neighbourhood.  Set to False to let the whole space drift.
    """

    freeze_distant: bool = True


@dataclass
class TDMatchConfig:
    """Full pipeline configuration."""

    builder: GraphBuilderConfig = field(default_factory=GraphBuilderConfig)
    walks: RandomWalkConfig = field(default_factory=RandomWalkConfig)
    word2vec: Word2VecConfig = field(default_factory=Word2VecConfig)
    merge: MergeConfig = field(default_factory=MergeConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    @classmethod
    def for_text_to_data(cls, **overrides) -> "TDMatchConfig":
        """Paper defaults for the text-to-data task: Skip-gram, window 3."""
        config = cls()
        config.word2vec.sg = True
        config.word2vec.window = 3
        return _apply_overrides(config, overrides)

    @classmethod
    def for_text_tasks(cls, **overrides) -> "TDMatchConfig":
        """Paper defaults for text-oriented tasks: CBOW, window 15."""
        config = cls()
        config.word2vec.sg = False
        config.word2vec.window = 15
        return _apply_overrides(config, overrides)

    @classmethod
    def fast(cls, **overrides) -> "TDMatchConfig":
        """A reduced configuration for unit tests and small examples."""
        config = cls()
        config.walks.num_walks = 8
        config.walks.walk_length = 12
        config.word2vec.vector_size = 48
        config.word2vec.epochs = 2
        return _apply_overrides(config, overrides)


def _apply_overrides(config: TDMatchConfig, overrides: dict) -> TDMatchConfig:
    """Apply ``section__field=value`` style overrides, e.g. walks__num_walks=10.

    A bare ``section=value`` key replaces a whole section.  Every section
    touched by a ``section__field`` key is rebuilt with
    :func:`dataclasses.replace`, which re-runs its ``__post_init__``: an
    invalid value raises ``ValueError`` here, not deep inside ``fit()``.
    """
    changes: Dict[str, Dict[str, object]] = {}
    for key, value in overrides.items():
        if "__" in key:
            section, field_name = key.split("__", 1)
            target = getattr(config, section)
            if field_name not in {f.name for f in fields(target)}:
                raise AttributeError(f"{section} config has no field {field_name!r}")
            changes.setdefault(section, {})[field_name] = value
        else:
            if not hasattr(config, key):
                raise AttributeError(f"TDMatchConfig has no section {key!r}")
            setattr(config, key, value)
    for section, section_changes in changes.items():
        setattr(config, section, replace(getattr(config, section), **section_changes))
    return config
