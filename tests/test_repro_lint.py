"""Tests for repro-lint (:mod:`repro.analysis`).

Three layers:

* fixture-driven unit tests per rule — each rule catches its target
  violation in ``tests/fixtures/lint`` and stays quiet on the compliant
  twin, and each respects inline ``# repro-lint: disable=<rule>`` markers;
* framework behaviour — selection, suppression parsing, JSON schema
  stability, parse-error reporting, one parse per file, the GitHub
  renderer, ``--explain``, CLI exit codes;
* the meta-test: the real ``src/`` and ``benchmarks/`` trees are
  violation-free, which is the contract CI enforces.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_analysis
from repro.analysis.core import Finding
from repro.analysis.registry import resolve_selection
from repro.analysis.report import (
    REPORT_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
    report_dict,
)
from repro.analysis.suppressions import line_suppressions, parse_disable_comment

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

EXPECTED_RULES = {
    "atomic-write",
    "rng-discipline",
    "shm-ownership",
    "timer-discipline",
}

BAD_FIXTURES = sorted(FIXTURES.glob("*_bad.py"))


def lint(*paths, **kwargs):
    kwargs.setdefault("root", str(REPO_ROOT))
    return run_analysis([str(p) for p in paths], **kwargs)


def run_cli(*args, env_path=None):
    """Run ``python -m repro.analysis`` in a subprocess from the repo root."""
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": env_path or str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def rules_of(result):
    return [f.rule for f in result.findings]


# ----------------------------------------------------------------------
# Registry and selection
class TestRegistry:
    def test_all_contract_rules_registered(self):
        assert set(all_rules()) == EXPECTED_RULES

    def test_rules_have_descriptions(self):
        for rule, cls in all_rules().items():
            assert cls.description, rule

    def test_select_restricts(self):
        result = lint(FIXTURES / "rng_bad.py", FIXTURES / "timer_bad.py",
                      select=["timer-discipline"])
        assert result.findings
        assert set(rules_of(result)) == {"timer-discipline"}

    def test_ignore_removes(self):
        result = lint(FIXTURES / "rng_bad.py", ignore=["rng-discipline"])
        assert result.ok

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_selection(select=["no-such-rule"])
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_selection(ignore=["no-such-rule"])


# ----------------------------------------------------------------------
# rng-discipline
class TestRngDiscipline:
    def test_bad_fixture_flagged(self):
        result = lint(FIXTURES / "rng_bad.py", select=["rng-discipline"])
        assert len(result.findings) == 7
        lines = {f.line for f in result.findings}
        # stdlib import, numpy.random import, and every np.random.* call.
        assert {3, 6, 10, 14, 18, 22, 26} == lines

    def test_good_fixture_clean(self):
        result = lint(FIXTURES / "rng_good.py", select=["rng-discipline"])
        assert result.ok

    def test_suppression(self):
        result = lint(FIXTURES / "rng_suppressed.py", select=["rng-discipline"])
        # Two silenced (rule-specific and disable=all); the marker naming a
        # different rule does not silence this one.
        assert len(result.findings) == 1
        assert result.findings[0].line == 15

    def test_utils_rng_exempt(self):
        result = lint(FIXTURES / "utils" / "rng.py", select=["rng-discipline"])
        assert result.ok

    def test_generator_annotation_not_flagged(self):
        result = lint(FIXTURES / "rng_good.py")
        assert result.ok


# ----------------------------------------------------------------------
# shm-ownership
class TestShmOwnership:
    def test_bad_fixture_flagged(self):
        result = lint(FIXTURES / "shm_bad.py", select=["shm-ownership"])
        # keyword create=True (qualified and bare), dynamic create=flag,
        # create passed as the second positional argument, and both alias
        # spellings (``SharedMemory as X``, ``shared_memory as m``).
        assert len(result.findings) == 6

    def test_good_fixture_clean(self):
        result = lint(FIXTURES / "shm_good.py", select=["shm-ownership"])
        assert result.ok

    def test_suppression(self):
        result = lint(FIXTURES / "shm_suppressed.py", select=["shm-ownership"])
        assert result.ok

    def test_parallel_shm_exempt(self):
        result = lint(FIXTURES / "parallel" / "shm.py", select=["shm-ownership"])
        assert result.ok


# ----------------------------------------------------------------------
# timer-discipline
class TestTimerDiscipline:
    def test_bad_fixture_flagged(self):
        result = lint(FIXTURES / "timer_bad.py", select=["timer-discipline"])
        # The from-import plus two time.time() and two bare now() calls.
        assert len(result.findings) == 5

    def test_good_fixture_clean(self):
        result = lint(FIXTURES / "timer_good.py", select=["timer-discipline"])
        assert result.ok

    def test_suppression(self):
        result = lint(FIXTURES / "timer_suppressed.py", select=["timer-discipline"])
        assert result.ok


# ----------------------------------------------------------------------
# atomic-write
class TestAtomicWrite:
    def test_bad_fixture_flagged(self):
        result = lint(FIXTURES / "atomic_write_bad.py", select=["atomic-write"])
        # open(.., "wb"), open(.., "w"), mode="x", and Path(..).open("w").
        assert len(result.findings) == 4
        for finding in result.findings:
            assert "atomic_write" in finding.message

    def test_good_fixture_clean(self):
        result = lint(FIXTURES / "atomic_write_good.py", select=["atomic-write"])
        assert result.ok

    def test_suppression(self):
        result = lint(FIXTURES / "atomic_write_suppressed.py", select=["atomic-write"])
        assert result.ok

    def test_utils_io_exempt(self):
        result = lint(FIXTURES / "utils" / "io.py", select=["atomic-write"])
        assert result.ok


# ----------------------------------------------------------------------
# Suppression parsing
class TestSuppressions:
    def test_parse_variants(self):
        assert parse_disable_comment("# repro-lint: disable=rng-discipline") == {
            "rng-discipline"
        }
        assert parse_disable_comment("#repro-lint: disable=a, b") == {"a", "b"}
        assert parse_disable_comment("# repro-lint: disable=all") == {"all"}
        assert parse_disable_comment("# unrelated comment") == set()

    def test_marker_inside_string_is_not_a_suppression(self):
        source = 's = "# repro-lint: disable=all"\n'
        assert line_suppressions(source) == {}

    def test_line_mapping(self):
        source = "x = 1\ny = 2  # repro-lint: disable=timer-discipline\n"
        assert line_suppressions(source) == {2: {"timer-discipline"}}


# ----------------------------------------------------------------------
# Reporting and schema stability
class TestReporting:
    def test_json_schema_stable(self):
        result = lint(FIXTURES / "rng_bad.py")
        payload = json.loads(render_json(result.findings, result.files_scanned))
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 3
        assert payload["tool"] == "repro-lint"
        assert set(payload) == {
            "schema_version",
            "tool",
            "files_scanned",
            "violations",
            "counts_by_rule",
            "findings",
        }
        assert payload["violations"] == len(payload["findings"])
        assert payload["counts_by_rule"]["rng-discipline"] == payload["violations"]
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "message"}
            assert isinstance(finding["line"], int) and finding["line"] >= 1
            assert isinstance(finding["col"], int) and finding["col"] >= 1

    def test_findings_sorted(self):
        result = lint(FIXTURES / "timer_bad.py", FIXTURES / "rng_bad.py")
        payload = report_dict(result.findings, result.files_scanned)
        keys = [(f["path"], f["line"], f["col"]) for f in payload["findings"]]
        assert keys == sorted(keys)

    def test_text_summary(self):
        result = lint(FIXTURES / "timer_good.py")
        text = render_text(result.findings, result.files_scanned)
        assert "0 violations" in text
        result = lint(FIXTURES / "timer_bad.py")
        text = render_text(result.findings, result.files_scanned)
        assert "Found 5 violations" in text

    def test_parse_error_reported(self):
        result = lint(FIXTURES / "broken_syntax.py")
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert result.broken_files


class TestSingleParse:
    def test_one_parse_per_file(self):
        result = lint(*BAD_FIXTURES)
        assert result.files_scanned == len(BAD_FIXTURES)
        assert result.parse_count == result.files_scanned

    def test_one_parse_per_file_with_many_rules(self):
        # Selection must not change how often files are parsed.
        everything = lint(*BAD_FIXTURES)
        one_rule = lint(*BAD_FIXTURES, select=["shm-ownership"])
        assert one_rule.parse_count == everything.parse_count


class TestGithubFormat:
    def test_error_lines(self):
        result = lint(FIXTURES / "shm_bad.py", select=["shm-ownership"])
        rendered = render_github(result.findings, result.files_scanned)
        errors = [line for line in rendered.splitlines() if line.startswith("::error ")]
        assert len(errors) == len(result.findings)
        first = errors[0]
        assert first.startswith("::error file=")
        assert "line=" in first and "shm-ownership" in first

    def test_escaping(self):
        finding = Finding(path="a,b.py", line=1, col=0, rule="x", message="100%\nbroken")
        rendered = render_github([finding], 1)
        assert "%0A" in rendered  # newline escaped in data
        assert "a%2Cb.py" in rendered  # comma escaped in properties

    def test_clean_run_summary(self):
        rendered = render_github([], 3)
        assert "::error" not in rendered
        assert "3 files" in rendered


# ----------------------------------------------------------------------
# CLI behaviour (subprocess: exit codes are part of the contract)
class TestCli:
    def test_exit_zero_on_clean(self):
        proc = run_cli(str(FIXTURES / "timer_good.py"))
        assert proc.returncode == 0, proc.stderr
        assert "0 violations" in proc.stdout

    def test_exit_one_on_findings(self):
        proc = run_cli(str(FIXTURES / "timer_bad.py"))
        assert proc.returncode == 1
        assert "timer-discipline" in proc.stdout

    def test_exit_two_on_unknown_rule(self):
        proc = run_cli("--select", "bogus-rule", str(FIXTURES / "timer_good.py"))
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_exit_two_on_missing_path(self):
        proc = run_cli(str(FIXTURES / "does_not_exist"))
        assert proc.returncode == 2

    def test_json_flag(self):
        proc = run_cli("--json", str(FIXTURES / "shm_bad.py"))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 3
        assert payload["counts_by_rule"] == {"shm-ownership": 6}

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        assert {line.split()[0] for line in proc.stdout.splitlines()} == EXPECTED_RULES

    def test_runs_without_numpy(self, tmp_path):
        # The CI lint job installs only ruff — no numeric stack — so
        # `python -m repro.analysis` must import without numpy.  repro's
        # __init__ re-exports the public API lazily (PEP 562) to keep the
        # analysis subpackage dependency-free; a numpy stub that raises on
        # import pins that property.
        stub = tmp_path / "numpy"
        stub.mkdir()
        (stub / "__init__.py").write_text(
            "raise ImportError('numpy deliberately blocked for this test')\n"
        )
        env_path = os.pathsep.join([str(tmp_path), str(REPO_ROOT / "src")])
        proc = run_cli(str(FIXTURES / "timer_good.py"), env_path=env_path)
        assert proc.returncode == 0, proc.stderr
        assert "0 violations" in proc.stdout


class TestExplainFlag:
    def test_explain_known_rule(self):
        proc = run_cli("--explain", "shm-ownership")
        assert proc.returncode == 0
        assert "shm-ownership" in proc.stdout
        assert "suppress" in proc.stdout.lower()

    def test_explain_every_rule(self):
        for rule in sorted(EXPECTED_RULES):
            proc = run_cli("--explain", rule)
            assert proc.returncode == 0, proc.stderr
            assert rule in proc.stdout

    def test_explain_unknown_rule_exits_two(self):
        proc = run_cli("--explain", "no-such-rule")
        assert proc.returncode == 2

    def test_github_format_cli(self):
        proc = run_cli(
            "--format", "github", "--select", "shm-ownership", str(FIXTURES / "shm_bad.py")
        )
        assert proc.returncode == 1
        assert "::error file=" in proc.stdout


# ----------------------------------------------------------------------
# The meta-test: the real tree is violation-free
class TestRealTree:
    def test_src_and_benchmarks_are_clean(self):
        result = lint(REPO_ROOT / "src", REPO_ROOT / "benchmarks")
        assert result.ok, "\n".join(f.format() for f in result.findings)
        assert result.files_scanned > 100
