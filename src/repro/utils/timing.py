"""Per-stage wall-clock seconds for the execution-time experiments.

Table VII of the paper reports train and test times per method.  The
:class:`TimingRegistry` sums the seconds of each named stage so the
benchmark harness and ``TDMatch.report()`` can print the same rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class TimingRegistry:
    """Total seconds per named stage."""

    records: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Add the block's wall-clock seconds to stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records[name] = self.records.get(name, 0.0) + (time.perf_counter() - start)

    def as_dict(self) -> Dict[str, float]:
        """Total seconds per stage, sorted by stage name."""
        return {name: self.records[name] for name in sorted(self.records)}
