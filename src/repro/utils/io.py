"""Durable file I/O: every final-destination write routes through here.

A crash (or injected fault) halfway through a plain ``open(path, "wb")``
leaves a torn file at the destination — which a later reader will happily
parse into garbage.  :func:`atomic_write` removes that window entirely:

1. the payload is written to a *same-directory* temp file (same filesystem,
   so the final rename cannot degrade into a copy),
2. the temp file is flushed and ``fsync``\\ ed,
3. ``os.replace`` moves it into place — atomic on POSIX and Windows — and
   the directory entry is fsynced best-effort.

Any failure between (1) and (3) deletes the temp file and leaves the
previous destination byte-for-byte intact; the fault-injection suite
(:mod:`repro.testing.faults`) proves this at arbitrary byte boundaries via
the :func:`install_write_fault` seam, which is consulted before every
``write()`` and is a no-op unless the test harness installed a fault.

The ``atomic-write`` contract (``tests/test_invariants.py``) flags
create-and-write ``open()`` calls anywhere else in ``src/`` and
``benchmarks/``, so new persistence code cannot quietly reintroduce the
torn-write window.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: Test-harness seam: ``fault(bytes_written_so_far, chunk)`` raising aborts
#: the write mid-stream (see repro.testing.faults.write_failure).
WriteFault = Callable[[int, bytes], None]

_write_fault: Optional[WriteFault] = None


def install_write_fault(fault: WriteFault) -> None:
    """Install a fault consulted before every :func:`atomic_write` write."""
    global _write_fault
    _write_fault = fault


def clear_write_fault() -> None:
    """Remove the installed write fault (idempotent)."""
    global _write_fault
    _write_fault = None


class _SupervisedHandle:
    """File-handle proxy that counts bytes and consults the fault seam."""

    def __init__(self, handle):
        self._handle = handle
        self.bytes_written = 0

    def write(self, data) -> int:
        fault = _write_fault
        if fault is not None:
            fault(self.bytes_written, data)
        written = self._handle.write(data)
        self.bytes_written += len(data)
        return written

    def __getattr__(self, name):
        return getattr(self._handle, name)


@contextmanager
def atomic_write(path, mode: str = "wb", encoding: Optional[str] = None) -> Iterator[_SupervisedHandle]:
    """Write ``path`` atomically: temp file + fsync + ``os.replace``.

    Yields a writable handle; when the block exits cleanly the temp file
    replaces ``path`` in one rename.  When the block (or a flush/fsync)
    raises, the temp file is removed and the previous ``path`` — if any —
    is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    handle = None
    try:
        handle = os.fdopen(fd, mode, encoding=encoding)
        yield _SupervisedHandle(handle)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        if handle is not None:
            try:
                handle.close()
            except Exception:
                pass
        else:
            os.close(fd)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Make the rename itself durable; not all filesystems support fsync on
    # a directory fd, so failures here are non-fatal.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
