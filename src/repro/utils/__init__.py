"""Shared utilities: deterministic RNG helpers, timing, and logging."""

from repro.utils.rng import RandomState, derive_rng, ensure_rng, spawn_rngs, stable_hash
from repro.utils.timing import TimingRegistry, timed
from repro.utils.logging import get_logger

__all__ = [
    "RandomState",
    "derive_rng",
    "ensure_rng",
    "spawn_rngs",
    "stable_hash",
    "TimingRegistry",
    "timed",
    "get_logger",
]
