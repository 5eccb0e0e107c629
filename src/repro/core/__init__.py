"""Core of the reproduction: the TDmatch unsupervised matching pipeline."""

from repro.core.config import (
    CompressionConfig,
    ExpansionConfig,
    IncrementalConfig,
    MergeConfig,
    RetrievalConfig,
    ServingConfig,
    TDMatchConfig,
)
from repro.core.blocking import (
    GraphQueryBlocker,
    MetadataNeighborhoodBlocking,
    TextQueryBlocker,
    TokenBlocking,
)
from repro.core.downstream import EmbeddingPairClassifier
from repro.core.exceptions import NotFittedError, PipelineError
from repro.core.matcher import MetadataMatcher, combine_score_matrices
from repro.core.pipeline import MatchResult, TDMatch

__all__ = [
    "TDMatchConfig",
    "MergeConfig",
    "ExpansionConfig",
    "CompressionConfig",
    "ServingConfig",
    "IncrementalConfig",
    "TDMatch",
    "MatchResult",
    "MetadataMatcher",
    "combine_score_matrices",
    "RetrievalConfig",
    "TokenBlocking",
    "MetadataNeighborhoodBlocking",
    "TextQueryBlocker",
    "GraphQueryBlocker",
    "EmbeddingPairClassifier",
    "NotFittedError",
    "PipelineError",
]
