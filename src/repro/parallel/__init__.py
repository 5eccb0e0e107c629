"""Sharded parallel execution layer for the fit pipeline.

Three fit stages — random walks, compression's DAG-union sweep, and the
Word2Vec epoch loop — can shard across worker processes over
shared-memory views of the CSR/model arrays, behind the
:class:`ParallelConfig` switch (``num_workers=0`` keeps everything
serial).  See the module docstrings for the per-stage determinism
contract.
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
from repro.parallel.trainer import EpochShardTrainer
from repro.parallel.walks import ParallelWalkEngine, shard_ranges, shard_streams

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
    "EpochShardTrainer",
    "ParallelWalkEngine",
    "parallel_grouped_dag_union",
    "shard_ranges",
    "shard_streams",
]
