"""Wall-clock timing utilities used by the execution-time experiments.

Table VII of the paper reports train and test times per method.  The
:class:`TimingRegistry` collects named measurements so the benchmark harness
can print the same rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class TimingRegistry:
    """Accumulates named timing measurements (seconds) and free-form notes.

    Notes annotate the measurements with provenance the benchmark tables
    report next to the times — e.g. which walk engine produced the "walks"
    row, or the measured speedup of one engine over another.
    """

    records: Dict[str, List[float]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.records.setdefault(name, []).append(float(seconds))

    def set_note(self, name: str, value: str) -> None:
        """Attach a provenance note (overwrites an existing note)."""
        self.notes[name] = str(value)

    def note(self, name: str, default: str = "") -> str:
        return self.notes.get(name, default)

    def total(self, name: str) -> float:
        return sum(self.records.get(name, []))

    def mean(self, name: str) -> float:
        values = self.records.get(name, [])
        if not values:
            return 0.0
        return sum(values) / len(values)

    def names(self) -> List[str]:
        return sorted(self.records)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def as_dict(self) -> Dict[str, float]:
        """Return total seconds per name."""
        return {name: self.total(name) for name in self.names()}

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """The full registry as a plain JSON-able dict.

        ``stages`` maps each measurement name to its total seconds (and the
        individual samples, for benches that record best-of-N), ``notes``
        carries the provenance strings verbatim.
        """
        return {
            "stages": {
                name: {
                    "seconds": self.total(name),
                    "samples": list(self.records[name]),
                }
                for name in self.names()
            },
            "notes": dict(self.notes),
        }


@contextmanager
def timed(registry: Optional[TimingRegistry], name: str) -> Iterator[None]:
    """Measure the block into ``registry`` when one is provided."""
    if registry is None:
        yield
        return
    with registry.measure(name):
        yield
