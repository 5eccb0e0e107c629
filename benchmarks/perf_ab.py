"""perfbench A/B: a parent checkout against this one, in alternating pairs.

Run from the root of a checkout::

    python benchmarks/perf_ab.py --parent ../parent --workload fit --seed 1 \\
        [--pairs 10] [--seconds 45] [--claim latency_min_ms]

``--parent TREE`` is another checkout (a ``git archive`` of the parent
commit, say).  Each pair runs ``TREE/perfbench/run.py`` and this checkout's
``perfbench/run.py`` once each, with the command of this checkout's
``BENCHMARK.json``; the parent runs first in odd pairs and the change first
in even ones, so a slow phase of a shared host falls on both sides.  Each
run prints one result line as it ends.  Then, for each end-to-end metric of
``BENCHMARK.json``, the script prints every run's value, each side's median
``[Q1, Q3]``, the pairs the change wins (ties count for neither side), the
relative change of the medians beside the metric's bound, and one
``verdict`` line:

* the ``--claim`` metric is ``met`` when the change wins at least nine
  tenths of the pairs and the medians differ, in the metric's better
  direction, by more than the parent's interquartile range (IQR), and
  ``not met`` otherwise;
* any other metric is ``worse than bound`` when the change's median is
  worse than the parent's by more than the bound, ``unresolved`` when the
  parent's own IQR is wider than the bound (unless every change run beats
  every parent run), and ``within bound`` otherwise.

A run that is not ``correct``, has failed operations or prints no result
makes every verdict ``not met``.  The script uses the standard library
only, writes to standard output only, and exits 0 once every run has
printed a result line (1 otherwise, 2 on a usage error).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: The share of pairs the change must win for a claim.
CLAIM_WINS = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)`` of ``values``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better_than(a: float, b: float, better: str) -> bool:
    """Whether ``a`` is strictly better than ``b`` for a metric with ``better``."""
    return a < b if better == "lower" else a > b


def count_wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs whose change value beats its parent value; ties count for neither."""
    return sum(better_than(c, p, better) for p, c in zip(parent, change))


def claim_verdict(
    parent: Sequence[Optional[float]], change: Sequence[Optional[float]], better: str, clean: bool
) -> str:
    """``"met"`` or ``"not met (reason)"`` for a claimed gain over the pairs
    ``zip(parent, change)``; ``clean`` is false when any run failed."""
    if not clean or None in parent or None in change:
        return "not met (a run failed)"
    wins = count_wins(parent, change, better)
    needed = math.ceil(CLAIM_WINS * len(parent))
    q1, parent_median, q3 = quartiles(parent)
    gap = parent_median - quartiles(change)[1]
    if better != "lower":
        gap = -gap
    if wins < needed:
        return f"not met (the change wins {wins} of {len(parent)} pairs, needs {needed})"
    if not gap > q3 - q1:
        return f"not met (median gap {gap:.6g} within the parent's IQR {q3 - q1:.6g})"
    return (
        f"met (wins {wins} of {len(parent)} pairs; "
        f"median gap {gap:.6g} > parent IQR {q3 - q1:.6g})"
    )


def relative_change(parent_median: float, change_median: float) -> Optional[float]:
    """``change / parent - 1``, or ``None`` against a zero parent."""
    return None if parent_median == 0 else change_median / parent_median - 1.0


def bound_verdict(
    parent: Sequence[Optional[float]],
    change: Sequence[Optional[float]],
    better: str,
    bound: float,
    clean: bool,
) -> str:
    """Whether the change's median stays within ``bound`` (a fraction of the
    parent's median) of the parent's in the worse direction."""
    if not clean or None in parent or None in change:
        return "not met (a run failed)"
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    rel = relative_change(parent_median, change_median)
    if better_than(parent_median, change_median, better) and (rel is None or abs(rel) > bound):
        return "worse than bound"
    separated = all(better_than(c, p, better) for c in change for p in parent)
    if parent_median and (q3 - q1) / abs(parent_median) > bound and not separated:
        return "unresolved (the parent's IQR is wider than the bound)"
    return "within bound"


def run_perfbench(tree: Path, command: Sequence[str], workload: str, seed: int, seconds: float):
    """One perfbench run in ``tree``: its result object, or ``None`` and the
    output's last lines when it printed none."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=str(tree), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
            return result, ""
    except (IndexError, ValueError):
        pass
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
    return None, f"exit {proc.returncode}: " + " | ".join(tail)


def metric_value(result: Optional[dict], name: str) -> Optional[float]:
    if result is None:
        return None
    value = (result["metrics"].get(name) or {}).get("value")
    return float(value) if isinstance(value, (int, float)) else None


def is_clean(result: Optional[dict]) -> bool:
    return result is not None and result.get("correct") is True and result.get("failed") == 0


def format_value(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def report_metric(
    metric: Dict[str, object], parent: List[dict], change: List[dict], claim: Optional[str]
) -> None:
    """Print one metric's runs, medians, wins, relative change and verdict."""
    name, better, bound = metric["name"], metric["better"], float(metric["bound"])
    sides = {"parent": parent, "change": change}
    values = {side: [metric_value(r, name) for r in runs] for side, runs in sides.items()}
    clean = all(is_clean(r) for runs in sides.values() for r in runs)
    print(f"{name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
    for side, vals in values.items():
        print(f"  {side} runs: " + " ".join(format_value(v) for v in vals))
    measured = None not in values["parent"] and None not in values["change"]
    if measured:
        medians = {}
        for side, vals in values.items():
            q1, medians[side], q3 = quartiles(vals)
            print(f"  {side} median {medians[side]:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = count_wins(values["parent"], values["change"], better)
        print(f"  change wins {wins} of {len(parent)} pairs")
        rel = relative_change(medians["parent"], medians["change"])
        shown = "n/a" if rel is None else f"{rel:+.1%}"
        print(f"  median change {shown} (bound {bound:.0%})")
    if name == claim:
        verdict = claim_verdict(values["parent"], values["change"], better, clean)
    else:
        verdict = bound_verdict(values["parent"], values["change"], better, bound, clean)
    print(f"verdict {name}: {verdict}")


def parse_args(argv, benchmark):
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the other checkout's root")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--claim", choices=metrics, help="the metric whose gain is claimed")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.parent}")
    return args


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    args = parse_args(argv, benchmark)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    results: Dict[str, List[Optional[dict]]] = {"parent": [], "change": []}
    printed = True
    total = 2 * args.pairs
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result, error = run_perfbench(
                trees[side], benchmark["command"], args.workload, args.seed, args.seconds
            )
            results[side].append(result)
            run = f"run {sum(map(len, results.values()))}/{total} pair {pair + 1} {side}:"
            if result is None:
                printed = False
                print(f"{run} no result ({error})", flush=True)
                continue
            fields = [
                f"correct={str(result.get('correct')).lower()}", f"failed={result.get('failed')}"
            ]
            fields += [
                f"{m['name']}={format_value(metric_value(result, m['name']))}"
                for m in benchmark["end_to_end"]
            ]
            print(f"{run} " + " ".join(fields), flush=True)
    print(f"perf_ab {args.workload}: seed={args.seed} pairs={args.pairs} seconds={args.seconds:g}")
    for metric in benchmark["end_to_end"]:
        report_metric(metric, results["parent"], results["change"], args.claim)
    return 0 if printed else 1


if __name__ == "__main__":
    sys.exit(main())
