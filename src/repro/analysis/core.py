"""Core types of the static-analysis framework.

A *checker* is an :class:`ast.NodeVisitor` subclass registered under a rule
id (see :mod:`repro.analysis.registry`).  Checkers visit one parsed file at
a time; the whole-scan :class:`ProjectContext` gives them the cross-module
symbol table and dataflow cache.

Findings are plain frozen dataclasses; suppression
(``# repro-lint: disable=<rule>``) is resolved at report time by
:meth:`Checker.report`, so individual checkers never deal with comments.
"""

from __future__ import annotations

import ast
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.suppressions import (
    module_directives,
    suppressions_from_tokens,
    tokenize_source,
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``provenance`` carries the dataflow trace that led a flow-aware rule to
    the value being flagged (empty for purely syntactic rules); it is part
    of the JSON report since schema version 2.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    provenance: Tuple[str, ...] = field(default=(), compare=False)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleContext:
    """One parsed source file plus its token stream and suppression map.

    The file is read, parsed and tokenised exactly once per lint run; every
    checker — and the project symbol table and dataflow engine — receives
    these same objects.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module, display_path: str):
        self.path = path
        self.source = source
        self.tree = tree
        #: Path as printed in findings (relative to the scan root when possible).
        self.display_path = display_path
        #: Cached token stream (shared by suppressions, directives, checkers).
        self.tokens: List[tokenize.TokenInfo] = tokenize_source(source)
        #: line number -> set of suppressed rule ids ("all" silences every rule).
        self.suppressed: Dict[int, Set[str]] = suppressions_from_tokens(self.tokens)
        #: header ``# repro-lint: key=value`` directives (e.g. module-dtype).
        self.directives: Dict[str, str] = module_directives(self.tokens)

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressed.get(line)
        if not rules:
            return False
        return "all" in rules or rule in rules

    def posix_path(self) -> str:
        return self.path.as_posix()


class ProjectContext:
    """The whole scan: every module plus the cross-module analyses.

    The symbol table (:class:`repro.analysis.project.ProjectIndex`) and the
    dataflow cache (:class:`repro.analysis.dataflow.FlowAnalyses`) are built
    lazily on first use and then shared by every checker in the run — one
    symbol-table build, one flow interpretation per module.
    """

    def __init__(self, modules: Sequence[ModuleContext]):
        self.modules = list(modules)
        self._index = None
        self._flows = None

    @property
    def index(self):
        """The cross-module symbol table (built once per run)."""
        if self._index is None:
            from repro.analysis.project import ProjectIndex

            self._index = ProjectIndex(self.modules)
        return self._index

    @property
    def flows(self):
        """The dataflow cache (one interpretation per module, memoised)."""
        if self._flows is None:
            from repro.analysis.dataflow import FlowAnalyses

            self._flows = FlowAnalyses(self.index)
        return self._flows

    def flow(self, ctx: ModuleContext):
        """The cached :class:`~repro.analysis.dataflow.ModuleFlow` of ``ctx``."""
        return self.flows.module_flow(ctx)


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
        #: The whole-scan context (symbol table, flow cache); set by the
        #: runner for every checker.
        self.project: Optional[ProjectContext] = None

    # -- driving -------------------------------------------------------
    def check_module(
        self, ctx: ModuleContext, project: Optional[ProjectContext] = None
    ) -> List[Finding]:
        self.findings = []
        self._ctx = ctx
        if project is not None:
            self.project = project
        self.visit(ctx.tree)
        self._ctx = None
        return self.findings

    # -- reporting -----------------------------------------------------
    def report(
        self,
        node: ast.AST,
        message: str,
        ctx: Optional[ModuleContext] = None,
        provenance: Sequence[str] = (),
    ) -> None:
        """Record a finding at ``node`` unless its line suppresses the rule."""
        ctx = ctx or self._ctx
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
                provenance=tuple(provenance),
            )
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a dotted string (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def path_matches(path: Path, suffix: str) -> bool:
    """True when ``path`` ends with the ``/``-separated ``suffix``."""
    return path.as_posix().endswith(suffix)
