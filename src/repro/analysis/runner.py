"""Orchestration: collect files, parse, run every enabled checker.

Separated from the CLI so tests (and the meta-test that lints the real
tree) can call :func:`run_analysis` in-process and inspect structured
results instead of shelling out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.core import Finding, ModuleContext
from repro.analysis.registry import resolve_selection

#: Directory names never descended into.
_SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


@dataclass
class AnalysisResult:
    """Everything a caller needs from one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Paths that failed to read or parse (already reported as findings).
    broken_files: List[str] = field(default_factory=list)
    #: Number of ``ast.parse`` calls issued — exactly one per readable file;
    #: every checker receives the same ``ModuleContext`` object.
    parse_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Python files under ``paths`` (files given directly are kept as-is)."""
    files: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (_SKIPPED_DIRS & set(p.parts))
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def load_module(path: Path, root: Optional[Path] = None) -> ModuleContext:
    """Read and parse one file (raises on unreadable/unparseable input)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleContext(
        path=path, source=source, tree=tree, display_path=_display_path(path, root)
    )


def run_analysis(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
) -> AnalysisResult:
    """Lint ``paths`` with the selected rules.

    ``root`` anchors the relative paths printed in findings (defaults to
    the current directory).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    checkers = [cls() for cls in resolve_selection(select=select, ignore=ignore)]

    result = AnalysisResult()
    for path in collect_files([Path(p) for p in paths]):
        result.files_scanned += 1
        try:
            ctx = load_module(path, root=root_path)
            result.parse_count += 1
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            display = _display_path(path, root_path)
            line = getattr(exc, "lineno", None) or 1
            result.findings.append(
                Finding(
                    path=display,
                    line=line,
                    col=1,
                    rule="parse-error",
                    message=f"could not parse file: {exc}",
                )
            )
            result.broken_files.append(display)
            continue
        for checker in checkers:
            result.findings.extend(checker.check_module(ctx))

    result.findings.sort()
    return result
