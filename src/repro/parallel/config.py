"""Configuration of the sharded parallel fit (see :mod:`repro.parallel`).

The shard count picks the code and the worker count picks the process.
A one-shard plan (the default) runs the serial stages at every worker
count; a plan of more shards runs each of the three sharded stages (walks,
compression's DAG-union sweep and the Word2Vec epoch loop) as shard tasks
over shared memory, in this process at ``num_workers`` 0 or 1 and in
worker processes above that.

Determinism contract
--------------------
Results are deterministic *per shard count*, not across shard counts:

* ``num_shards=1`` is the serial pipeline, at any worker count.
* At a fixed ``num_shards`` (default: ``num_workers``, at least 1) every
  worker count runs the same task functions on the same shard plan and
  produces bit-identical results.
* Compression sharding is RNG-free (pair sampling happens before the BFS
  sweep), so its output is identical to serial at *any* shard count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel.reliability import ReliabilityConfig

_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass
class ParallelConfig:
    """Sharded-fit options.

    Parameters
    ----------
    num_workers:
        Worker processes that run the shard tasks.  ``0`` (default) and
        ``1`` both run them in this process; the output at a fixed shard
        count is the same at any worker count.
    num_shards:
        Number of shards each stage splits its work into; ``None`` uses
        ``num_workers`` (at least 1).  The shard count — not the worker
        count — picks the code path and the RNG stream assignment, and
        therefore the results.
    mp_context:
        Multiprocessing start method; ``None`` picks ``fork`` where
        available (Linux) and falls back to ``spawn`` (macOS/Windows).
        Workers attach shared-memory segments by name, so both methods
        produce identical results; ``fork`` merely starts faster.
    reliability:
        Supervision policy for the worker pools: per-task timeout, retry
        budget/backoff after worker loss, and whether exhausted retries
        degrade to inline serial execution (bit-identical by the
        determinism contract above) instead of aborting the fit.
    """

    num_workers: int = 0
    num_shards: Optional[int] = None
    mp_context: Optional[str] = None
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError("num_shards must be >= 1 (or None)")
        if self.mp_context not in _START_METHODS:
            raise ValueError(
                f"unknown mp_context {self.mp_context!r}; valid: "
                f"{[m for m in _START_METHODS if m]} or None"
            )

    @property
    def shards(self) -> int:
        """The effective shard count of the plan."""
        if self.num_shards is not None:
            return self.num_shards
        return max(1, self.num_workers)

    def start_method(self) -> str:
        """The resolved multiprocessing start method."""
        if self.mp_context is not None:
            return self.mp_context
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
