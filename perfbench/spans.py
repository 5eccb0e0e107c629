"""In-memory span recorder for the traced benchmark run.

The benchmark opens one *root* span around every call it makes into the
program (``fit``, ``ingest``, ``save``, ``load``, ``match``).  With tracing
on, :meth:`Tracer.install` also wraps the layer boundaries below those
calls (graph build, walk generation, Word2Vec training, matcher
construction, retrieval, ranking decoding) in *leaf* spans.  Each finished
root keeps, per layer name, the layer's self time: its span durations
minus the part covered by its child spans.  The root's own self time is
stored under ``"self"``.

Spans stay in memory; :func:`layer_medians` reduces them when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List


class RootRecord:
    """One finished root span: its layers' self times and its counts."""

    def __init__(self, name: str):
        self.name = name
        self.layers: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)


class Tracer:
    """Records nested spans around the program's layer boundaries."""

    def __init__(self):
        # Open frames, innermost last: [name, start, seconds covered by children].
        self._stack: List[list] = []
        self._root: RootRecord = RootRecord("")
        self.roots: List[RootRecord] = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> None:
        if not self._stack:
            self._root = RootRecord(name)
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child_seconds = self._stack.pop()
        elapsed = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += elapsed
            self._root.layers[name] += elapsed - child_seconds
        else:
            self._root.layers["self"] += elapsed - child_seconds
            self.roots.append(self._root)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter of the currently open root span."""
        self._root.counts[name] += int(n)

    def iterate(self, name: str, items) -> Iterator:
        """Yield from ``items``, charging each ``next()`` to a ``name`` span."""
        iterator = iter(items)
        while True:
            self._enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit()
            self._root.counts[name] += 1
            yield item

    # -- layer boundaries ------------------------------------------------
    def wrap(self, owner, attr: str, name: str, iterates: bool = False) -> None:
        """Replace the method ``owner.attr`` by one that runs in a ``name`` span.

        ``iterates`` is for methods returning a lazy iterator: the span then
        covers each step of the iteration rather than the call itself.
        """
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if iterates:
                return self.iterate(name, original(*args, **kwargs))
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the program's layer boundaries (see the module docstring)."""
        from repro.core.pipeline import TDMatch
        from repro.embeddings.word2vec import Word2Vec
        from repro.graph.builder import GraphBuilder
        from repro.graph.walk_engine import CSRWalkEngine
        from repro.parallel.walks import ParallelWalkEngine
        from repro.retrieval.base import RetrievalResult
        from repro.retrieval.blocked import BlockedTopK
        from repro.retrieval.dense import DenseTopK

        self.wrap(GraphBuilder, "build", "graph")
        self.wrap(CSRWalkEngine, "iter_walks", "walks", iterates=True)
        self.wrap(ParallelWalkEngine, "iter_walks", "walks", iterates=True)
        self.wrap(Word2Vec, "train", "word2vec")
        self.wrap(Word2Vec, "fine_tune", "word2vec")
        self.wrap(TDMatch, "matcher", "matcher")
        self.wrap(DenseTopK, "retrieve", "retrieve")
        self.wrap(BlockedTopK, "retrieve", "retrieve")
        self.wrap(RetrievalResult, "to_rankings", "rank")


class NullTracer:
    """The untraced run: root spans and counters cost nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def count(self, name: str, n: int = 1) -> None:
        pass


def layer_medians(roots: List[RootRecord], root: str, layer: str) -> float:
    """Median self time (seconds) of ``layer`` across the ``root`` spans."""
    values = [record.layers.get(layer, 0.0) for record in roots if record.name == root]
    return statistics.median(values) if values else 0.0


def count_medians(roots: List[RootRecord], root: str, counter: str) -> float:
    """Median of a counter across the ``root`` spans."""
    values = [record.counts.get(counter, 0) for record in roots if record.name == root]
    return statistics.median(values) if values else 0.0
