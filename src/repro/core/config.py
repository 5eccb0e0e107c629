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
        Merge numeric data nodes with equal-width buckets.
    bucket_width:
        Explicit width; None uses the Freedman–Diaconis rule.
    pretrained:
        A pre-trained embedding resource for synonym/typo merging; None
        disables embedding-based merging.
    gamma:
        Cosine threshold; None calibrates it from ``synonym_pairs``.
    synonym_pairs:
        Calibration pairs for γ (ignored when ``gamma`` is given).
    """

    bucket_numeric: bool = False
    bucket_width: Optional[float] = None
    pretrained: Optional[object] = None
    gamma: Optional[float] = None
    synonym_pairs: Optional[list] = None

    @property
    def merge_embeddings(self) -> bool:
        return self.pretrained is not None


@dataclass
class ExpansionConfig:
    """Graph expansion options (Algorithm 2)."""

    resource: Optional[object] = None
    max_relations_per_node: Optional[int] = None
    remove_sinks: bool = True

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
    (score only the candidates within ``max_hops`` of the query's metadata
    node in the match graph, at most ``max_block_size`` of them).  Token
    blocking needs the corpus texts, so it is passed as a ready-made
    blocker to ``TDMatch.match(blocker=...)`` instead.  ``chunk_size``
    bounds dense scoring memory at ``chunk_size × n_candidates`` scores;
    ``dtype`` "float32" halves memory/doubles matmul throughput at the cost
    of bit-compatibility with the float64 reference.
    """

    backend: str = "dense"
    chunk_size: int = 1024
    dtype: str = "float64"
    max_hops: int = 2
    max_block_size: Optional[int] = None
    fallback_to_full: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("dense", "blocked"):
            raise ValueError(f"unknown retrieval backend {self.backend!r}; valid: ['blocked', 'dense']")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown retrieval dtype {self.dtype!r}; valid: ['float32', 'float64']")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.max_block_size is not None and self.max_block_size < 1:
            raise ValueError("max_block_size must be >= 1 or None")


@dataclass
class ServingConfig:
    """Persistent-index serving options (see :mod:`repro.serving`).

    ``mmap`` makes :meth:`TDMatch.load` open the embedding matrices as
    read-only memory maps by default, so N query processes serving the same
    index share the pages instead of each materialising a copy.
    ``include_output_vectors`` keeps Word2Vec's output matrix in the saved
    index; dropping it halves the file but disables warm-start fine-tuning
    on the loaded index.
    """

    mmap: bool = False
    include_output_vectors: bool = True


@dataclass
class IncrementalConfig:
    """Incremental-fit options (``TDMatch.add_documents`` and friends).

    Parameters
    ----------
    epochs:
        Word2Vec fine-tuning epochs over the delta walk corpus; None uses
        the ``word2vec.epochs`` of the pipeline.
    learning_rate:
        Fine-tuning step size; None uses ``word2vec.learning_rate``.
    num_walks:
        Walks per touched start node; None uses ``walks.num_walks``.
    neighborhood_hops:
        How far from the delta's term nodes walk regeneration reaches:
        1 restarts walks from the new nodes and their direct neighbours
        (the documents sharing a term with the delta), 2 adds the
        neighbours' neighbours, and so on.
    freeze_distant:
        Restore the embedding rows of nodes *outside* the touched
        neighbourhood after fine-tuning (default).  Delta walks still pass
        through distant nodes, and letting a few local epochs drag those
        rows degrades the rankings of unrelated queries (catastrophic
        interference); freezing them confines the update to the delta's
        neighbourhood.  Set to False to let the whole space drift.
    """

    epochs: Optional[int] = None
    learning_rate: Optional[float] = None
    num_walks: Optional[int] = None
    neighborhood_hops: int = 1
    freeze_distant: bool = True

    def __post_init__(self) -> None:
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.num_walks is not None and self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.neighborhood_hops < 0:
            raise ValueError("neighborhood_hops must be >= 0")


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
