"""TDmatch reproduction: unsupervised matching of data and text.

This package reproduces the system of "Unsupervised Matching of Data and
Text" (ICDE 2022): a graph-based, unsupervised framework that matches text
documents to relational tuples, taxonomy concepts, or other text documents.

Quick start::

    from repro import TDMatch, TDMatchConfig
    from repro.datasets import generate_imdb_scenario, ScenarioSize

    scenario = generate_imdb_scenario(ScenarioSize.tiny(), seed=1)
    pipeline = TDMatch(TDMatchConfig.fast(), seed=1)
    pipeline.fit(scenario.first, scenario.second)
    rankings = pipeline.match(k=5)
"""

from repro.core.config import (
    CompressionConfig,
    ExpansionConfig,
    MergeConfig,
    RetrievalConfig,
    TDMatchConfig,
)
from repro.core.matcher import MetadataMatcher
from repro.core.pipeline import MatchResult, TDMatch
from repro.corpus import Document, Table, Taxonomy, TextCorpus
from repro.eval.metrics import evaluate_rankings
from repro.retrieval import BlockedTopK, DenseTopK

__version__ = "1.0.0"

__all__ = [
    "TDMatch",
    "MatchResult",
    "TDMatchConfig",
    "MergeConfig",
    "ExpansionConfig",
    "CompressionConfig",
    "RetrievalConfig",
    "MetadataMatcher",
    "DenseTopK",
    "BlockedTopK",
    "Document",
    "TextCorpus",
    "Table",
    "Taxonomy",
    "evaluate_rankings",
    "__version__",
]
