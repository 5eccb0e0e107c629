"""Fixture: shared-memory creation outside the arena."""

from multiprocessing import shared_memory
from multiprocessing import shared_memory as shm_module
from multiprocessing.shared_memory import SharedMemory
from multiprocessing.shared_memory import SharedMemory as SegmentAlias


def rogue_create():
    return shared_memory.SharedMemory(create=True, size=64)


def rogue_create_bare():
    return SharedMemory(create=True, size=64)


def rogue_dynamic(flag):
    # Ownership must be statically decidable; a dynamic flag is flagged too.
    return SharedMemory(create=flag, size=64)


def rogue_positional():
    # create is SharedMemory's second parameter; passing it positionally
    # must not escape the rule.
    return SharedMemory("segment", True, size=64)


def rogue_class_alias():
    # An aliased class import must not escape the rule.
    return SegmentAlias(create=True, size=64)


def rogue_module_alias():
    return shm_module.SharedMemory(create=True, size=64)
