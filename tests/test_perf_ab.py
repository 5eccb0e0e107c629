"""Tests for the perfbench A/B protocol (``benchmarks/perf_ab.py``)."""

import pytest

from benchmarks import perf_ab
from benchmarks.perf_ab import bound_verdict, claim_verdict

PARENT = [200.0, 205.0, 210.0, 198.0, 202.0, 207.0, 203.0, 201.0, 209.0, 204.0]


def test_a_clean_win_is_met():
    change = [v - 30.0 for v in PARENT]
    assert claim_verdict(PARENT, change, "lower", clean=True).startswith("met")
    # Higher-is-better metrics win the other way.
    assert claim_verdict(change, PARENT, "higher", clean=True).startswith("met")
    assert claim_verdict(change, PARENT, "lower", clean=True).startswith("not met")


def test_eight_wins_of_ten_are_not_enough():
    change = [v - 30.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    assert claim_verdict(PARENT, change, "lower", clean=True) == (
        "not met (the change wins 8 of 10 pairs, needs 9)"
    )
    change[8] = PARENT[8] - 30.0
    assert claim_verdict(PARENT, change, "lower", clean=True).startswith("met")


def test_a_gap_inside_the_parents_iqr_is_not_met():
    # Every pair won, by less than the parent's spread between quartiles.
    change = [v - 2.0 for v in PARENT]
    verdict = claim_verdict(PARENT, change, "lower", clean=True)
    assert verdict.startswith("not met (median gap 2 within the parent's IQR")


def test_ties_count_for_neither_side():
    change = [v - 30.0 for v in PARENT[:8]] + PARENT[8:]
    assert claim_verdict(PARENT, change, "lower", clean=True).startswith(
        "not met (the change wins 8 of 10"
    )
    assert claim_verdict([1.0] * 10, [1.0] * 10, "higher", clean=True).startswith(
        "not met (the change wins 0 of 10"
    )
    # Ties are no loss either: a metric that stays put is within its bound.
    assert bound_verdict([1.0] * 10, [1.0] * 10, "higher", 0.05, clean=True) == "within bound"


def test_a_failed_run_is_not_met():
    change = [v - 30.0 for v in PARENT]
    assert claim_verdict(PARENT, change, "lower", clean=False) == "not met (a run failed)"
    assert claim_verdict(PARENT, change[:9] + [None], "lower", clean=True) == (
        "not met (a run failed)"
    )
    assert bound_verdict(PARENT, change, "lower", 0.25, clean=False) == "not met (a run failed)"


def test_bound_verdict():
    assert bound_verdict(PARENT, [v * 1.1 for v in PARENT], "lower", 0.25, True) == "within bound"
    assert bound_verdict(PARENT, [v * 1.3 for v in PARENT], "lower", 0.25, True) == (
        "worse than bound"
    )
    assert bound_verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25, True) == (
        "worse than bound"
    )
    # A parent spread wider than the bound cannot show the change within it,
    # unless every change run beats every parent run.
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert bound_verdict(wide, [1.5] * 6, "lower", 0.25, True).startswith("unresolved")
    assert bound_verdict(wide, [0.5] * 6, "lower", 0.25, True) == "within bound"


def _fake_runs(monkeypatch, broken=()):
    """Replace perfbench with canned results; returns the sides in run order."""
    order = []

    def run(tree, command, workload, seed, seconds):
        side = "change" if tree == perf_ab.ROOT else "parent"
        order.append(side)
        if (side, order.count(side)) in broken:
            return None, "exit 1: Traceback"
        latency = 100.0 if side == "change" else 120.0
        metrics = {
            "latency_min_ms": {"value": latency + len(order) * 0.01},
            "mrr": {"value": 1.0},
            "peak_alloc_mb": {"value": 4.0},
            "setup_s": {"value": 0.25},
        }
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}, ""

    monkeypatch.setattr(perf_ab, "run_perfbench", run)
    return order


def test_runs_alternate_and_each_metric_gets_one_verdict(tmp_path, monkeypatch, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    order = _fake_runs(monkeypatch)
    argv = ["--parent", str(tmp_path), "--workload", "fit", "--seed", "1", "--pairs", "4"]
    assert perf_ab.main(argv + ["--claim", "latency_min_ms"]) == 0
    assert order == ["parent", "change", "change", "parent"] * 2
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("run ") for line in lines) == 8
    verdicts = [line for line in lines if line.startswith("verdict ")]
    assert [v.split(":")[0] for v in verdicts] == [
        "verdict latency_min_ms", "verdict mrr", "verdict peak_alloc_mb", "verdict setup_s"
    ]
    assert verdicts[0].startswith("verdict latency_min_ms: met")
    assert all(v.endswith("within bound") for v in verdicts[1:])


def test_a_run_without_a_result_fails_the_verdicts_and_the_exit(tmp_path, monkeypatch, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    _fake_runs(monkeypatch, broken={("parent", 2)})
    argv = ["--parent", str(tmp_path), "--workload", "fit", "--seed", "1", "--pairs", "2"]
    assert perf_ab.main(argv + ["--claim", "latency_min_ms"]) == 1
    out = capsys.readouterr().out
    assert "pair 2 parent: no result (exit 1: Traceback)" in out
    assert out.count("not met (a run failed)") == 4


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        perf_ab.main(["--parent", str(tmp_path), "--workload", "fit", "--seed", "1"])
    assert exc.value.code == 2
    assert "no perfbench/run.py" in capsys.readouterr().err
