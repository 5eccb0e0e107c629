"""Core types of the static-analysis framework.

A *checker* is an :class:`ast.NodeVisitor` subclass registered under a rule
id (see :mod:`repro.analysis.registry`).  Checkers visit one parsed file at
a time and resolve names from that module's own imports.

Findings are plain frozen dataclasses; suppression
(``# repro-lint: disable=<rule>``) is resolved at report time by
:meth:`Checker.report`, so individual checkers never deal with comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.analysis.suppressions import line_suppressions


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleContext:
    """One parsed source file plus its suppression map.

    The file is read, parsed and tokenised exactly once per lint run; every
    checker receives these same objects.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module, display_path: str):
        self.path = path
        self.source = source
        self.tree = tree
        #: Path as printed in findings (relative to the scan root when possible).
        self.display_path = display_path
        #: line number -> set of suppressed rule ids ("all" silences every rule).
        self.suppressed: Dict[int, Set[str]] = line_suppressions(source)

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressed.get(line)
        if not rules:
            return False
        return "all" in rules or rule in rules


class Checker(ast.NodeVisitor):
    """Base class of all rules.

    Subclasses set ``rule`` (the id used in ``--select`` and suppression
    comments) and ``description`` (one line, shown by ``--list-rules``), and
    implement the usual ``visit_*`` methods; :meth:`check_module` drives
    them over one file.
    """

    rule: str = ""
    description: str = ""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._ctx: Optional[ModuleContext] = None

    # -- driving -------------------------------------------------------
    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        self.findings = []
        self._ctx = ctx
        self.visit(ctx.tree)
        self._ctx = None
        return self.findings

    # -- reporting -----------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node`` unless its line suppresses the rule."""
        ctx = self._ctx
        assert ctx is not None, "report() called outside a check"
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if ctx.is_suppressed(line, self.rule):
            return
        self.findings.append(
            Finding(
                path=ctx.display_path,
                line=line,
                col=col + 1,
                rule=self.rule,
                message=message,
            )
        )


def path_matches(path: Path, suffix: str) -> bool:
    """True when ``path`` ends with the ``/``-separated ``suffix``."""
    return path.as_posix().endswith(suffix)
