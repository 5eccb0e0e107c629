"""Sharded parallel execution layer for the fit pipeline.

Three fit stages — random walks, compression's DAG-union sweep, and the
Word2Vec epoch loop — shard their work behind the :class:`ParallelConfig`
plan.  The shard count picks the code: one shard (the default) is the
serial stage, more shards run the stage's task function over
shared-memory views of the CSR/model arrays.  The worker count picks the
process: ``num_workers`` 0 and 1 run the tasks in this process, more fan
them out to worker processes.  See the module docstrings for the
per-stage determinism contract.
"""

from repro.parallel.compression import parallel_grouped_dag_union
from repro.parallel.config import ParallelConfig
from repro.parallel.reliability import (
    ReliabilityConfig,
    ReliabilityEvent,
    WorkerFailureError,
    record_event,
    recording,
)
from repro.parallel.shm import SharedArray, ShmArena, WorkerPool, attached
from repro.parallel.walks import ParallelWalkEngine, shard_ranges

__all__ = [
    "ParallelConfig",
    "ReliabilityConfig",
    "ReliabilityEvent",
    "SharedArray",
    "ShmArena",
    "WorkerFailureError",
    "WorkerPool",
    "attached",
    "record_event",
    "recording",
    "ParallelWalkEngine",
    "parallel_grouped_dag_union",
    "shard_ranges",
]
