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

The public API is re-exported lazily (PEP 562): attribute access triggers
the submodule import, so dependency-free subpackages — notably
``python -m repro.analysis``, which must run in environments without
numpy — can be imported without pulling in the numeric stack.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static type checkers only
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

#: Public name -> defining submodule; resolved on first attribute access.
_EXPORTS = {
    "TDMatch": "repro.core.pipeline",
    "MatchResult": "repro.core.pipeline",
    "TDMatchConfig": "repro.core.config",
    "MergeConfig": "repro.core.config",
    "ExpansionConfig": "repro.core.config",
    "CompressionConfig": "repro.core.config",
    "RetrievalConfig": "repro.core.config",
    "MetadataMatcher": "repro.core.matcher",
    "DenseTopK": "repro.retrieval",
    "BlockedTopK": "repro.retrieval",
    "Document": "repro.corpus",
    "TextCorpus": "repro.corpus",
    "Table": "repro.corpus",
    "Taxonomy": "repro.corpus",
    "evaluate_rankings": "repro.eval.metrics",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: later accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
