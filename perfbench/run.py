"""End-to-end benchmark of TDMatch: fit and serve.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout.  A run builds its
inputs from ``--seed`` (see ``workloads.py``) and sets up ``SETUP_REPEATS``
times; after each set-up it repeats the workload's operation for an equal
share of ``--seconds``, checking every output against the set-up's
reference rankings.  Spreading the set-ups over the run lets a slow phase
of a shared host hit set-ups and operations alike instead of all set-ups.
numpy's BLAS runs one thread: on a host with few cores a second thread
measures the scheduler, not the program.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (fastest operation latency, ranking
quality, the operation's peak allocation, set-up time); with ``--trace 1``
the run is traced (``spans.py``) and the metrics are per layer: median
self time per call and median counts.  A failed set-up or operation makes
``correct`` false; a metric without a sample is ``null``.  Index files go
to a temporary directory inside the checkout, removed at exit.  The exit
code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6

# (metric, root span, layer): median self time of the layer per root call.
LAYER_TIMES = (
    ("fit.graph_ms", "fit", "graph"),
    ("fit.walks_ms", "fit", "walks"),
    ("fit.word2vec_ms", "fit", "word2vec"),
    ("fit.self_ms", "fit", "self"),
    ("ingest.walks_ms", "ingest", "walks"),
    ("ingest.word2vec_ms", "ingest", "word2vec"),
    ("ingest.self_ms", "ingest", "self"),
    ("save.self_ms", "save", "self"),
    ("load.self_ms", "load", "self"),
    ("match.matcher_ms", "match", "matcher"),
    ("match.retrieve_ms", "match", "retrieve"),
    ("match.rank_ms", "match", "rank"),
    ("match.self_ms", "match", "self"),
)
# (metric, root span, counter, unit): median count per root call.
LAYER_COUNTS = (
    ("fit.nodes", "fit", "nodes", "count"),
    ("fit.walks", "fit", "walks", "count"),
    ("fit.train_pairs", "fit", "train_pairs", "count"),
    ("ingest.walks", "ingest", "walks", "count"),
    ("match.scored_pairs", "match", "scored_pairs", "count"),
    ("save.bytes", "save", "bytes", "bytes"),
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_latency(latencies):
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 90.0):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(len(ordered) * pct / 100) - 1]
    return None, None


def scaled(statistic, samples, factor: float):
    """``statistic(samples) * factor``, or ``None`` without samples."""
    return statistic(samples) * factor if samples else None


class Run:
    """The samples and outcomes of one benchmark run."""

    def __init__(self):
        self.setup_seconds = []
        self.references = []
        self.latencies = []
        self.peak_bytes = None
        self.quality = None
        self.attempted = 0
        self.failed = 0

    def attempt(self, fixture, measured) -> None:
        """Run the operation once inside ``measured`` and check its output."""
        from workloads import operation

        self.attempted += 1
        try:
            call, check = operation(fixture)
            with measured:
                output = call()
            ok = check(output)
        except Exception:  # counted as a failed operation; the first is shown
            if not self.failed:
                traceback.print_exc()
            ok = False
        self.failed += not ok

    def operate(self, fixture, seconds: float) -> None:
        """Repeat the operation until ``seconds`` have passed, at least once."""
        deadline = time.perf_counter() + seconds
        while True:
            # Start every operation with an empty young generation, so that
            # collector pauses come from the operation's own allocations.
            gc.collect()
            self.attempt(fixture, Stopwatch(self.latencies))
            if time.perf_counter() >= deadline:
                return


class Stopwatch:
    """Appends the wall time of its ``with`` block, if it completes, to a list."""

    def __init__(self, samples):
        self.samples = samples

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.samples.append(time.perf_counter() - self.start)


class AllocationPeak:
    """Records the peak of memory allocated inside its ``with`` block."""

    def __init__(self, run: Run):
        self.run = run

    def __enter__(self):
        tracemalloc.start()

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.run.peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def measure(workload, seed: int, seconds: float, tracer, scratch: str, peak: bool, run: Run) -> None:
    """Set up ``SETUP_REPEATS`` times, operating after each set-up.

    With ``peak``, one last operation runs under ``tracemalloc`` for the
    peak allocation; it is not timed.
    """
    from workloads import Fixture

    fixture = None
    for i in range(SETUP_REPEATS):
        # Release the previous set-up before, not during, the next one.
        gc.unfreeze()
        fixture = None
        gc.collect()
        start = time.perf_counter()
        fixture = Fixture(workload, seed, os.path.join(scratch, f"setup{i}"), tracer)
        run.setup_seconds.append(time.perf_counter() - start)
        run.references.append(fixture.full_key)
        # Keep the set-up's long-lived objects out of later collections.
        gc.collect()
        gc.freeze()
        run.operate(fixture, seconds / SETUP_REPEATS)
    run.quality = fixture.quality()
    if peak:
        run.attempt(fixture, AllocationPeak(run))


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import NullTracer, Tracer, count_medians, layer_medians
    from workloads import MRR_FLOOR, WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    run = Run()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    set_up = True
    try:
        measure(workload, args.seed, args.seconds, tracer, scratch, not args.trace, run)
    except Exception:  # a failed set-up: reported as an incorrect run
        traceback.print_exc()
        set_up = False
        run.attempted += 1
        run.failed += 1
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)

    deterministic = bool(run.references) and all(
        ref == run.references[0] for ref in run.references
    )
    quality = run.quality
    correct = set_up and deterministic and run.failed == 0 and quality >= MRR_FLOOR
    if args.trace:
        metrics = {
            name: {"value": layer_medians(tracer.roots, root, layer) * 1e3, "unit": "ms"}
            for name, root, layer in LAYER_TIMES
        }
        for name, root, counter, unit in LAYER_COUNTS:
            metrics[name] = {"value": count_medians(tracer.roots, root, counter), "unit": unit}
    else:
        # Slow phases of a shared host stretch every operation inside them
        # by up to ~1.5x for seconds at a time; the fastest operation is the
        # program's own cost (timeit's best-of-N), as is the fastest set-up.
        metrics = {
            "latency_min_ms": {"value": scaled(min, run.latencies, 1e3), "unit": "ms"},
            "mrr": {"value": quality, "unit": "ratio"},
            "peak_alloc_mb": {
                "value": None if run.peak_bytes is None else run.peak_bytes / 2**20,
                "unit": "MB",
            },
            "setup_s": {"value": scaled(min, run.setup_seconds, 1.0), "unit": "s"},
        }
    summary = [f"perfbench {workload.name}: seed={args.seed} ops={run.attempted} failed={run.failed}"]
    summary.append(f"deterministic={deterministic} mrr={quality if quality is None else round(quality, 4)}")
    if run.latencies:
        summary.append(f"p50={statistics.median(run.latencies) * 1e3:.3f}ms")
    pct, tail = tail_latency(run.latencies)
    if pct is not None:
        summary.append(f"p{pct:g}={tail * 1e3:.3f}ms")
    summary.append("setup_s=" + ",".join(f"{s:.3f}" for s in run.setup_seconds))
    print(" ".join(summary))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
