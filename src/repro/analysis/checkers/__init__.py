"""Built-in checkers; importing this package registers every rule."""

from repro.analysis.checkers.atomic_write import AtomicWriteChecker
from repro.analysis.checkers.rng import RngDisciplineChecker
from repro.analysis.checkers.shm import ShmOwnershipChecker
from repro.analysis.checkers.timers import TimerDisciplineChecker

__all__ = [
    "AtomicWriteChecker",
    "RngDisciplineChecker",
    "ShmOwnershipChecker",
    "TimerDisciplineChecker",
]
