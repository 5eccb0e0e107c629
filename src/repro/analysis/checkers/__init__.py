"""Built-in checkers; importing this package registers every rule."""

from repro.analysis.checkers.arena_lifecycle import ArenaLifecycleChecker
from repro.analysis.checkers.atomic_write import AtomicWriteChecker
from repro.analysis.checkers.dtype_discipline import DtypeDisciplineChecker
from repro.analysis.checkers.fork_safety import ForkSafetyChecker
from repro.analysis.checkers.mmap_mutation import MmapMutationChecker
from repro.analysis.checkers.rng import RngDisciplineChecker
from repro.analysis.checkers.rng_flow import RngFlowChecker
from repro.analysis.checkers.shm import ShmOwnershipChecker
from repro.analysis.checkers.timers import TimerDisciplineChecker
from repro.analysis.checkers.version_bump import VersionBumpChecker

__all__ = [
    "ArenaLifecycleChecker",
    "AtomicWriteChecker",
    "DtypeDisciplineChecker",
    "ForkSafetyChecker",
    "MmapMutationChecker",
    "RngDisciplineChecker",
    "RngFlowChecker",
    "ShmOwnershipChecker",
    "TimerDisciplineChecker",
    "VersionBumpChecker",
]
