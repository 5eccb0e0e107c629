"""Tests for the flow-aware layer of repro-lint.

Four layers:

* lattice unit tests — the dtype/writability joins and promotions in
  :mod:`repro.analysis.nptypes` behave like flat lattices;
* dataflow unit tests — provenance tags survive assignment, tuple
  unpacking, helper calls and ``zip`` binding, and ``.copy()`` strips
  the mmap tag, driven on inline sources;
* project-index tests — eager and lazy re-exports, aliased imports and
  dotted attribute chains resolve to canonical qualnames across the
  ``tests/fixtures/lint/flow`` mini-project;
* fixture-driven rule tests — each of the five flow rules flags its
  ``*_bad.py`` twin, stays quiet on ``*_good.py``, and respects inline
  suppressions, with the whole mini-project scanned in one run so
  cross-module resolution is actually exercised.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.core import ModuleContext
from repro.analysis.dataflow import BOTTOM, FlowAnalyses, Value, element_of
from repro.analysis.project import ProjectIndex, module_name_for
from repro.analysis.report import REPORT_SCHEMA_VERSION, render_github, report_dict
from repro.analysis import nptypes

REPO_ROOT = Path(__file__).resolve().parents[1]
MINIPROJ = Path(__file__).resolve().parent / "fixtures" / "lint" / "flow" / "miniproj"


def lint(*paths, **kwargs):
    kwargs.setdefault("root", str(REPO_ROOT))
    return run_analysis([str(p) for p in paths], **kwargs)


def lint_tree(**kwargs):
    """One whole-tree scan of the mini-project (cross-module resolution)."""
    return lint(MINIPROJ, **kwargs)


def findings_in(result, filename):
    return [f for f in result.findings if f.path.endswith(filename)]


def make_context(source, name="mod.py"):
    path = Path(name)
    return ModuleContext(path, source, ast.parse(source), name)


def flow_of(source, function):
    """Interpret ``source`` standalone and return ``function``'s FlowResult."""
    ctx = make_context(source)
    analyses = FlowAnalyses(ProjectIndex([ctx]))
    module_flow = analyses.module_flow(ctx)
    for result in module_flow.functions:
        if result.fn is not None and result.fn.name == function:
            return result
    raise AssertionError(f"no flow result for {function}")


# ----------------------------------------------------------------------
# Lattice
class TestLattice:
    def test_join_dtype_identity_and_top(self):
        assert nptypes.join_dtype(nptypes.DT_BOTTOM, nptypes.DT_FLOAT32) == nptypes.DT_FLOAT32
        assert nptypes.join_dtype(nptypes.DT_FLOAT32, nptypes.DT_FLOAT32) == nptypes.DT_FLOAT32
        assert nptypes.join_dtype(nptypes.DT_FLOAT32, nptypes.DT_FLOAT64) == nptypes.DT_UNKNOWN
        assert nptypes.join_dtype(nptypes.DT_UNKNOWN, nptypes.DT_BOTTOM) == nptypes.DT_UNKNOWN

    def test_join_dtype_commutes(self):
        members = [
            nptypes.DT_BOTTOM,
            nptypes.DT_FLOAT32,
            nptypes.DT_FLOAT64,
            nptypes.DT_OTHER,
            nptypes.DT_UNKNOWN,
        ]
        for a in members:
            for b in members:
                assert nptypes.join_dtype(a, b) == nptypes.join_dtype(b, a)

    def test_join_writability(self):
        assert nptypes.join_writability(nptypes.W_BOTTOM, nptypes.W_READONLY) == nptypes.W_READONLY
        assert (
            nptypes.join_writability(nptypes.W_READONLY, nptypes.W_WRITABLE)
            == nptypes.W_UNKNOWN
        )

    def test_promote_dtype(self):
        assert nptypes.promote_dtype(nptypes.DT_FLOAT32, nptypes.DT_FLOAT32) == nptypes.DT_FLOAT32
        assert nptypes.promote_dtype(nptypes.DT_FLOAT32, nptypes.DT_FLOAT64) == nptypes.DT_FLOAT64

    def test_is_upcast(self):
        assert nptypes.is_upcast(nptypes.DT_FLOAT32, nptypes.DT_FLOAT64)
        assert nptypes.is_upcast(nptypes.DT_FLOAT64, nptypes.DT_FLOAT32)
        assert not nptypes.is_upcast(nptypes.DT_FLOAT32, nptypes.DT_FLOAT32)
        assert not nptypes.is_upcast(nptypes.DT_FLOAT32, nptypes.DT_UNKNOWN)

    def test_dtype_from_string(self):
        assert nptypes.dtype_from_string("float32") == nptypes.DT_FLOAT32
        assert nptypes.dtype_from_string("<f8") == nptypes.DT_FLOAT64
        assert nptypes.dtype_from_string("int64") == nptypes.DT_OTHER

    def test_dtype_from_ast(self):
        def of(expr):
            return nptypes.dtype_from_ast(ast.parse(expr, mode="eval").body)

        assert of("np.float32") == nptypes.DT_FLOAT32
        assert of("'float64'") == nptypes.DT_FLOAT64
        assert of("np.dtype('float32')") == nptypes.DT_FLOAT32
        assert of("float") == nptypes.DT_FLOAT64
        assert of("some_variable") == nptypes.DT_UNKNOWN


# ----------------------------------------------------------------------
# Dataflow values and transfer functions
class TestValue:
    def test_join_unions_tags_and_keeps_trace(self):
        a = Value(tags=frozenset({"mmap"}), trace=("a",))
        b = Value(tags=frozenset({"rng"}), trace=("b",))
        joined = a.join(b)
        assert joined.tags == frozenset({"mmap", "rng"})
        assert "a" in joined.trace and "b" in joined.trace

    def test_join_drops_conflicting_ref(self):
        a = Value(ref="pkg.f")
        b = Value(ref="pkg.g")
        assert a.join(b).ref is None
        assert a.join(Value(ref="pkg.f")).ref == "pkg.f"

    def test_element_of_spawned_list_is_fresh(self):
        rngs = Value(tags=frozenset({"rng-list"}))
        element = element_of(rngs)
        assert element.has("rng") and element.has("rng-fresh")
        assert not element.has("rng-list")

    def test_element_of_keeps_mmap(self):
        assert element_of(Value(tags=frozenset({"mmap"}))).has("mmap")


class TestTransfer:
    def test_assignment_and_tuple_unpack(self):
        result = flow_of(
            "import numpy as np\n"
            "def f(path):\n"
            "    view = np.memmap(path, mode='r')\n"
            "    alias = view\n"
            "    first, second = alias, 0\n",
            "f",
        )
        assert "mmap" in result.name_tags["alias"]
        assert "mmap" in result.name_tags["first"]

    def test_copy_strips_mmap(self):
        result = flow_of(
            "import numpy as np\n"
            "def f(path):\n"
            "    view = np.memmap(path, mode='r')\n"
            "    owned = view.copy()\n",
            "f",
        )
        # name_tags only records names that ever held tags; a stripped
        # copy holds none, so 'owned' must be absent (or mmap-free).
        assert "mmap" not in result.name_tags.get("owned", frozenset())

    def test_zip_binds_elementwise(self):
        result = flow_of(
            "import numpy as np\n"
            "def f(path, ranges):\n"
            "    views = [np.memmap(path, mode='r')]\n"
            "    for (lo, hi), view in zip(ranges, views):\n"
            "        pass\n",
            "f",
        )
        # zip binds loop targets element-wise: the view slot gets the
        # list's element provenance, the range slots get none of it.
        assert "mmap" in result.name_tags.get("view", frozenset())
        assert "mmap" not in result.name_tags.get("lo", frozenset())

    def test_branch_join_unions_both_arms(self):
        result = flow_of(
            "import numpy as np\n"
            "def f(path, flag):\n"
            "    if flag:\n"
            "        x = np.memmap(path, mode='r')\n"
            "    else:\n"
            "        x = np.random.default_rng(0)\n",
            "f",
        )
        assert {"mmap", "rng"} <= result.name_tags["x"]

    def test_helper_summary_carries_provenance(self):
        source = (
            "import numpy as np\n"
            "def _open(path):\n"
            "    return np.memmap(path, mode='r')\n"
            "def f(path):\n"
            "    view = _open(path)\n"
        )
        result = flow_of(source, "f")
        assert "mmap" in result.name_tags["view"]

    def test_returns_join(self):
        result = flow_of(
            "import numpy as np\n"
            "def f(path, flag):\n"
            "    if flag:\n"
            "        return np.memmap(path, mode='r')\n"
            "    return np.random.default_rng(0)\n",
            "f",
        )
        assert result.returns.has("mmap") and result.returns.has("rng")

    def test_bottom_is_empty(self):
        assert BOTTOM.tags == frozenset()
        assert BOTTOM.dtype == nptypes.DT_BOTTOM


# ----------------------------------------------------------------------
# Project index: cross-module resolution on the mini-project
class TestProjectIndex:
    @pytest.fixture(scope="class")
    def index(self):
        contexts = []
        for path in sorted(MINIPROJ.rglob("*.py")):
            source = path.read_text()
            contexts.append(ModuleContext(path, source, ast.parse(source), str(path)))
        return ProjectIndex(contexts), {
            module_name_for(ctx.path): ctx for ctx in contexts
        }

    def test_module_name_for_walks_packages(self):
        assert module_name_for(MINIPROJ / "shmlib" / "core.py") == "miniproj.shmlib.core"
        assert module_name_for(MINIPROJ / "shmlib" / "__init__.py") == "miniproj.shmlib"

    def test_eager_reexport_resolves_to_definition(self, index):
        project, by_name = index
        symbol = project.resolve_qualname("miniproj.shmlib.WorkerPool")
        assert symbol.qualname == "miniproj.shmlib.core.WorkerPool"
        assert isinstance(symbol.node, ast.ClassDef)

    def test_lazy_reexport_resolves_through_exports_dict(self, index):
        project, by_name = index
        symbol = project.resolve_qualname("miniproj.rnglib.spawn_rngs")
        assert symbol.qualname == "miniproj.rnglib.streams.spawn_rngs"
        assert isinstance(symbol.node, ast.FunctionDef)

    def test_aliased_import_resolves(self, index):
        project, by_name = index
        module = project.by_name["miniproj.fork_bad"]
        symbol = project.resolve_name(module, "WP")
        assert symbol is not None
        assert symbol.qualname == "miniproj.shmlib.core.WorkerPool"

    def test_attribute_chain_resolves(self, index):
        project, by_name = index
        module = project.by_name["miniproj.parallel.rng_bad"]
        expr = ast.parse("rnglib.ensure_rng", mode="eval").body
        symbol = project.resolve_expr(module, expr)
        assert symbol is not None
        assert symbol.qualname == "miniproj.rnglib.streams.ensure_rng"

    def test_unresolved_name_is_none(self, index):
        project, by_name = index
        module = project.by_name["miniproj.helpers"]
        assert project.resolve_name(module, "does_not_exist") is None


# ----------------------------------------------------------------------
# Rule fixtures (one whole-tree scan per rule)
class TestMmapMutation:
    def test_bad_fixture_flagged(self):
        result = lint_tree(select=["mmap-mutation"])
        lines = sorted(f.line for f in findings_in(result, "mmap_bad.py"))
        assert lines == [12, 19, 25, 31, 32]
        assert len(result.findings) == 5

    def test_cross_module_provenance_recorded(self):
        result = lint_tree(select=["mmap-mutation"])
        helper = [f for f in findings_in(result, "mmap_bad.py") if f.line == 19]
        assert helper, "augassign through open_index() helper not flagged"
        assert any("mmap=True" in step for step in helper[0].provenance)

    def test_good_fixture_clean(self):
        result = lint_tree(select=["mmap-mutation"])
        assert findings_in(result, "mmap_good.py") == []

    def test_suppression(self):
        result = lint_tree(select=["mmap-mutation"])
        assert findings_in(result, "mmap_suppressed.py") == []


class TestForkSafety:
    def test_bad_fixture_flagged(self):
        result = lint_tree(select=["fork-safety"])
        messages = sorted(f.message for f in findings_in(result, "fork_bad.py"))
        assert len(messages) == 3
        assert any("bound method" in m for m in messages)
        assert any("lambda" in m for m in messages)
        assert any("nested function" in m for m in messages)

    def test_good_fixture_clean(self):
        result = lint_tree(select=["fork-safety"])
        assert findings_in(result, "fork_good.py") == []

    def test_suppression(self):
        result = lint_tree(select=["fork-safety"])
        assert findings_in(result, "fork_suppressed.py") == []


class TestRngFlow:
    def test_bad_fixture_flagged(self):
        result = lint_tree(select=["rng-flow"])
        messages = sorted(f.message for f in findings_in(result, "rng_bad.py"))
        assert len(messages) == 2
        assert any("fanned into multiple shard tasks" in m for m in messages)
        assert any("data-dependent branch" in m for m in messages)

    def test_good_fixture_clean(self):
        result = lint_tree(select=["rng-flow"])
        assert findings_in(result, "rng_good.py") == []

    def test_suppression(self):
        result = lint_tree(select=["rng-flow"])
        assert findings_in(result, "rng_suppressed.py") == []

    def test_rule_is_scoped_to_parallel_dirs(self):
        # The same shared-stream shape outside parallel/ (e.g. fork_bad.py
        # has submits but no rng use) must not trip the rule.
        result = lint_tree(select=["rng-flow"])
        assert all("parallel/" in f.path for f in result.findings)


class TestDtypeDiscipline:
    def test_bad_fixture_flagged(self):
        result = lint_tree(select=["dtype-discipline"])
        messages = sorted(f.message for f in findings_in(result, "dtype_bad.py"))
        assert len(messages) == 2
        assert any("without dtype" in m for m in messages)
        assert any("float32 x float64" in m for m in messages)

    def test_good_fixture_clean(self):
        result = lint_tree(select=["dtype-discipline"])
        assert findings_in(result, "dtype_good.py") == []

    def test_rule_is_opt_in(self):
        result = lint_tree(select=["dtype-discipline"])
        assert findings_in(result, "dtype_unannotated.py") == []

    def test_suppression(self):
        result = lint_tree(select=["dtype-discipline"])
        assert findings_in(result, "dtype_suppressed.py") == []


class TestArenaLifecycle:
    def test_bad_fixture_flagged(self):
        result = lint_tree(select=["arena-lifecycle"])
        lines = sorted(f.line for f in findings_in(result, "arena_bad.py"))
        assert lines == [8, 17, 22]

    def test_factory_provenance_flagged(self):
        # Line 22 binds make_arena(), i.e. the arena tag arrived through a
        # cross-module helper's return summary, not a direct constructor.
        result = lint_tree(select=["arena-lifecycle"])
        factory = [f for f in findings_in(result, "arena_bad.py") if f.line == 22]
        assert factory

    def test_good_fixture_clean(self):
        result = lint_tree(select=["arena-lifecycle"])
        assert findings_in(result, "arena_good.py") == []

    def test_suppression(self):
        result = lint_tree(select=["arena-lifecycle"])
        assert findings_in(result, "arena_suppressed.py") == []


class TestWholeTree:
    def test_all_violations_live_in_bad_fixtures(self):
        result = lint_tree()
        assert result.findings, "mini-project should not lint clean"
        for finding in result.findings:
            assert "_bad.py" in finding.path, finding


# ----------------------------------------------------------------------
# Satellites: single-parse, provenance in reports, GitHub format, explain
class TestSingleParse:
    def test_one_parse_per_file(self):
        result = lint_tree()
        assert result.parse_count == result.files_scanned

    def test_one_parse_per_file_with_many_rules(self):
        # Selection must not change how often files are parsed.
        everything = lint_tree()
        one_rule = lint_tree(select=["mmap-mutation"])
        assert one_rule.parse_count == everything.parse_count


class TestProvenanceReporting:
    def test_flow_findings_carry_provenance(self):
        result = lint_tree(select=["mmap-mutation"])
        assert any(f.provenance for f in result.findings)

    def test_json_report_is_v2_with_provenance(self):
        result = lint_tree(select=["mmap-mutation"])
        payload = json.loads(
            json.dumps(report_dict(result.findings, result.files_scanned))
        )
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 2
        for finding in payload["findings"]:
            assert isinstance(finding["provenance"], list)


class TestGithubFormat:
    def test_error_lines(self):
        result = lint_tree(select=["arena-lifecycle"])
        rendered = render_github(result.findings, result.files_scanned)
        lines = rendered.splitlines()
        errors = [line for line in lines if line.startswith("::error ")]
        assert len(errors) == len(result.findings)
        first = errors[0]
        assert "file=" in first and "line=" in first and "arena-lifecycle" in first
        assert first.startswith("::error file=")

    def test_escaping(self):
        from repro.analysis.core import Finding

        finding = Finding(
            path="a,b.py", line=1, col=0, rule="x", message="100%\nbroken"
        )
        rendered = render_github([finding], 1)
        assert "%0A" in rendered  # newline escaped in data
        assert "a%2Cb.py" in rendered  # comma escaped in properties

    def test_clean_run_summary(self):
        rendered = render_github([], 3)
        assert "::error" not in rendered
        assert "3 files" in rendered


class TestExplainFlag:
    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )

    def test_explain_known_rule(self):
        proc = self.run_cli("--explain", "mmap-mutation")
        assert proc.returncode == 0
        assert "mmap-mutation" in proc.stdout
        assert "suppress" in proc.stdout.lower()

    def test_explain_every_flow_rule(self):
        for rule in (
            "arena-lifecycle",
            "dtype-discipline",
            "fork-safety",
            "rng-flow",
        ):
            proc = self.run_cli("--explain", rule)
            assert proc.returncode == 0, proc.stderr
            assert rule in proc.stdout

    def test_explain_unknown_rule_exits_two(self):
        proc = self.run_cli("--explain", "no-such-rule")
        assert proc.returncode == 2

    def test_github_format_cli(self):
        proc = self.run_cli(
            "--format",
            "github",
            "--select",
            "mmap-mutation",
            "tests/fixtures/lint/flow/miniproj",
        )
        assert proc.returncode == 1
        assert "::error file=" in proc.stdout
