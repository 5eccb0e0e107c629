"""Shared-memory plumbing of the parallel fit: arena, attach, worker pool.

The parent process owns every segment: :class:`ShmArena` creates them (one
copy of each input array, plus zero-initialised output blocks) and
guarantees close+unlink on exit — **including when a worker raises
mid-fit** — so a failing shard never leaks ``/dev/shm`` segments.  Workers
attach segments by name (:func:`attached`), getting zero-copy views of the
CSR arrays; attachment skips the resource tracker so the parent's unlink
stays the single authority and interpreter shutdown stays warning-free.

:class:`WorkerPool` runs a multi-shard plan's tasks: ``num_workers<=1``
executes them inline in the parent (same task functions, same shard plan,
no processes), anything above fans out to a ``ProcessPoolExecutor``.
Inline tasks attach the segments like workers do, so an in-process
multi-shard plan uses ``/dev/shm`` too.  Keep the arena *outside* the pool
context so workers finish (or die) before segments are unlinked.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.parallel.config import ParallelConfig
from repro.parallel.reliability import (
    ReliabilityEvent,
    WorkerFailureError,
    record_event,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Mirrors repro.testing.faults.FAULT_PLAN_ENV without importing the test
#: harness on the hot path: injection code loads only when the env is set.
_FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Sentinel marking a task slot whose result has not been produced yet.
_PENDING = object()

#: Held while a segment is created and while :func:`_attach_untracked`
#: swaps out the process-global ``resource_tracker.register``.  Without it,
#: threads attaching at once restore each other's no-op, and a segment
#: created in another thread inside the swap is never registered.
_TRACKER_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    # A worker forked while another thread holds the lock must not inherit
    # it held: its first attach would block forever.
    os.register_at_fork(after_in_child=_TRACKER_LOCK._at_fork_reinit)


def _supervised_call(fn, index: int, args: tuple):
    """Worker-side task wrapper: the fault-injection seam.

    Runs in the worker process.  When a fault plan is active in the
    environment (test harness only), :func:`repro.testing.faults.maybe_inject`
    may crash, hang, or fail this call deterministically; otherwise this is
    a plain ``fn(*args)``.  Inline and degraded-serial execution call ``fn``
    directly and therefore bypass injection — degradation always succeeds.
    """
    if os.environ.get(_FAULT_PLAN_ENV):
        from repro.testing.faults import maybe_inject

        maybe_inject(index)
    return fn(*args)


@dataclass(frozen=True)
class SharedArray:
    """A picklable descriptor of one shared-memory numpy array."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Only the creating arena may own a segment's lifetime.  On Python < 3.13
    attaching registers with the resource tracker too, which double-books
    the segment: a spawn-started worker's own tracker would unlink it at
    worker exit (the classic "leaked shared_memory" unlink race), and under
    fork an unregister from the shared tracker would break the parent's
    entry instead.  Suppressing registration for the attach sidesteps both;
    3.13+ exposes this directly as ``track=False``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        with _TRACKER_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


class ShmArena:
    """Context manager owning a set of shared-memory segments.

    Every segment created through :meth:`share` / :meth:`empty` is closed
    and unlinked on ``__exit__`` no matter how the block terminates; a
    worker exception propagates *after* cleanup.  The class-level
    :meth:`live_segments` view exists for leak regression tests.
    """

    _live: Set[str] = set()

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[str, np.ndarray] = {}

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Close and unlink every segment (idempotent, exception-safe)."""
        self._views.clear()
        for name, segment in list(self._segments.items()):
            try:
                segment.close()
            except BufferError:
                # A caller still holds a view; unlink regardless — the
                # mapping stays valid until the last reference drops.
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except Exception as exc:  # pragma: no cover - platform-specific
                logger.warning("could not unlink shared memory %s: %s", name, exc)
            ShmArena._live.discard(name)
        self._segments.clear()

    @classmethod
    def live_segments(cls) -> Set[str]:
        """Names of segments created by any arena and not yet unlinked."""
        return set(cls._live)

    # -- allocation ----------------------------------------------------
    def _create(self, nbytes: int) -> shared_memory.SharedMemory:
        with _TRACKER_LOCK:
            segment = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments[segment.name] = segment
        ShmArena._live.add(segment.name)
        return segment

    def share(self, array: np.ndarray) -> SharedArray:
        """Copy ``array`` into a new segment and return its descriptor."""
        array = np.ascontiguousarray(array)
        segment = self._create(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._views[segment.name] = view
        return SharedArray(segment.name, tuple(array.shape), str(array.dtype))

    def empty(self, shape: Sequence[int], dtype) -> Tuple[SharedArray, np.ndarray]:
        """A zero-initialised output block: (descriptor, parent view)."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        segment = self._create(nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        view[...] = 0
        self._views[segment.name] = view
        return SharedArray(segment.name, shape, str(dtype)), view

    def view(self, desc: SharedArray) -> np.ndarray:
        """The parent-side view of a segment created by this arena."""
        return self._views[desc.name]


@contextmanager
def attached(*descs: SharedArray):
    """Worker-side zero-copy views of shared segments, by descriptor.

    Yields one ndarray per descriptor; handles are closed (not unlinked —
    the creating arena owns that) when the block exits.
    """
    segments: List[shared_memory.SharedMemory] = []
    arrays: List[np.ndarray] = []
    try:
        for desc in descs:
            segment = _attach_untracked(desc.name)
            segments.append(segment)
            arrays.append(np.ndarray(desc.shape, dtype=np.dtype(desc.dtype), buffer=segment.buf))
        yield arrays
    finally:
        del arrays
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a view escaped; process exit cleans up
                pass


class WorkerPool:
    """Supervised runner of a multi-shard plan's tasks, inline or in workers.

    Beyond plain fan-out, :meth:`run` enforces the pool's
    :class:`~repro.parallel.reliability.ReliabilityConfig`: a hung task
    hits its timeout (workers killed), a crashed worker
    (``BrokenProcessPool``, raised by ``submit`` or by a result) is
    detected, the failed round is retried on a fresh executor with
    exponential backoff, and — once retries are exhausted — the remaining
    tasks degrade to inline serial execution, which is bit-identical to the
    pooled result because shard outputs are fixed by the shard plan and
    per-shard RNG streams, never by which process ran them.  Every incident
    goes through :func:`repro.parallel.reliability.record_event` into the
    incident list of the calling context, which is the pipeline's own list
    while it fits or adds a delta.
    """

    def __init__(self, config: ParallelConfig, label: str = "pool"):
        self.config = config
        self.label = label
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def inline(self) -> bool:
        return self.config.num_workers <= 1

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _kill_executor(self) -> None:
        """Tear the executor down without waiting on hung or dead workers."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # Killing first matters for the timeout path: a hung worker never
        # drains the call queue, so a waiting shutdown would hang with it.
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead race
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _harvest(futures: Dict[int, object], results: List[object]) -> None:
        """Keep results of tasks that finished cleanly before the round broke."""
        for index, future in futures.items():
            if results[index] is not _PENDING or not future.done() or future.cancelled():
                continue
            if future.exception() is None:
                results[index] = future.result()

    def run(self, fn, tasks: Sequence[tuple]) -> List[object]:
        """Run ``fn(*task)`` for every task, returning results in order.

        Inline mode (``num_workers <= 1``) and a single task run in the
        parent — the same task functions the workers execute, which is what
        makes every worker count bit-exact at a fixed shard plan.

        A task *exception* (``fn`` raised) is deterministic and propagates
        immediately — the executor is shut down with ``cancel_futures=True``
        so slow sibling tasks cannot delay the error.  Worker *loss* (crash
        or timeout) is absorbed per the reliability policy: completed
        results are harvested, the round is retried on a fresh executor,
        and exhausted retries degrade to inline execution or raise
        :class:`~repro.parallel.reliability.WorkerFailureError`.
        """
        tasks = list(tasks)
        if self.inline or len(tasks) <= 1:
            return [fn(*args) for args in tasks]
        reliability = self.config.reliability
        results: List[object] = [_PENDING] * len(tasks)
        pending = list(range(len(tasks)))
        attempt = 0
        while pending:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=min(self.config.num_workers, len(pending)),
                    mp_context=get_context(self.config.start_method()),
                )
            # Filled one task at a time inside the ``try``: a worker that dies
            # while tasks are still being submitted makes ``submit`` raise
            # ``BrokenProcessPool``, and ``_harvest`` must see what was
            # submitted before it.
            futures: Dict[int, object] = {}
            failure: Optional[ReliabilityEvent] = None
            current = pending[0]
            try:
                for current in pending:
                    futures[current] = self._executor.submit(
                        _supervised_call, fn, current, tasks[current]
                    )
                for current in pending:
                    results[current] = futures[current].result(
                        timeout=reliability.task_timeout
                    )
            except FuturesTimeoutError:
                failure = ReliabilityEvent(
                    "timeout",
                    self.label,
                    current,
                    attempt,
                    f"no result within {reliability.task_timeout}s; workers killed",
                )
                self._harvest(futures, results)
                self._kill_executor()
            except BrokenExecutor as exc:
                failure = ReliabilityEvent(
                    "crash",
                    self.label,
                    current,
                    attempt,
                    f"worker died ({type(exc).__name__})",
                )
                self._harvest(futures, results)
                self._kill_executor()
            except BaseException:
                # Deterministic task error: propagate promptly.  The old
                # future.cancel() loop was a no-op for running futures and
                # still waited on stragglers at shutdown.
                self._kill_executor()
                raise
            if failure is None:
                break
            record_event(failure)
            logger.warning("worker pool %s: %s", self.label, failure.summary())
            pending = [i for i in range(len(tasks)) if results[i] is _PENDING]
            if attempt >= reliability.max_retries:
                if not reliability.degrade_serial:
                    raise WorkerFailureError(
                        f"pool {self.label!r}: {len(pending)} task(s) still failing "
                        f"after {attempt + 1} attempt(s) ({failure.summary()}) and "
                        "serial degradation is disabled"
                    )
                record_event(
                    ReliabilityEvent(
                        "degraded",
                        self.label,
                        -1,
                        attempt,
                        f"{len(pending)} task(s) rerun inline after "
                        f"{attempt + 1} failed attempt(s)",
                    )
                )
                logger.warning(
                    "worker pool %s: degrading %d task(s) to inline serial execution",
                    self.label,
                    len(pending),
                )
                for index in pending:
                    results[index] = fn(*tasks[index])
                pending = []
                break
            attempt += 1
            record_event(
                ReliabilityEvent(
                    "retry",
                    self.label,
                    -1,
                    attempt,
                    f"{len(pending)} task(s) resubmitted on a fresh executor",
                )
            )
            backoff = reliability.retry_backoff * (2 ** (attempt - 1))
            if backoff > 0:
                time.sleep(backoff)
        return results
