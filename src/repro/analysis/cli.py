"""Command-line front end: ``python -m repro.analysis``.

Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule id, missing
path).  ``--format json`` (or the ``--json`` shorthand) prints the
versioned report of :mod:`repro.analysis.report` so CI can upload the
output as an artifact; ``--format github`` emits ``::error`` workflow
commands so findings annotate the PR diff.  ``--explain <rule>`` prints a
rule's invariant, rationale, and suppression example straight from the
checker's docstring.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.registry import all_rules
from repro.analysis.report import render_github, render_json, render_text
from repro.analysis.runner import run_analysis


def _split_rules(values: List[str]) -> List[str]:
    rules: List[str] = []
    for value in values:
        rules.extend(part.strip() for part in value.split(",") if part.strip())
    return rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: enforce the repository's RNG, "
        "shared-memory, atomic-write, and timer contracts.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src benchmarks, "
        "falling back to the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default=None,
        help="output format: human text (default), the versioned JSON "
        "report, or GitHub Actions ::error workflow commands",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print a rule's invariant, rationale, and suppression example, "
        "then exit",
    )
    return parser


def default_paths() -> List[str]:
    preferred = [name for name in ("src", "benchmarks") if Path(name).is_dir()]
    return preferred or ["."]


def explain_rule(rule: str) -> str:
    """The ``--explain`` text of one rule, sourced from checker docstrings.

    The rule's invariant and rationale live in the checker *module*
    docstring (the better-documented of the two); the class docstring is
    used when it exists and says more.  Raises ``KeyError`` for unknown
    rule ids (turned into a usage error by :func:`main`).
    """
    cls = all_rules()[rule]
    doc = inspect.getdoc(cls)
    if not doc or doc == inspect.getdoc(cls.__bases__[0]):
        doc = inspect.getdoc(sys.modules[cls.__module__]) or ""
    lines = [
        rule,
        f"  {cls.description}",
        "",
        doc.rstrip(),
        "",
        "Suppress one finding inline with:",
        f"    offending_line  # repro-lint: disable={rule}",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; die quietly (and point
        # stdout at devnull so interpreter shutdown can't re-raise on flush).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, cls in all_rules().items():
            print(f"{rule:28s} {cls.description}")
        return 0

    if args.explain is not None:
        try:
            print(explain_rule(args.explain))
        except KeyError:
            known = ", ".join(sorted(all_rules()))
            print(
                f"repro-lint: error: unknown rule id {args.explain!r}; known: {known}",
                file=sys.stderr,
            )
            return 2
        return 0

    output = args.format or ("json" if args.json else "text")
    select = _split_rules(args.select) if args.select is not None else None
    ignore = _split_rules(args.ignore) if args.ignore is not None else None
    paths = args.paths or default_paths()
    try:
        result = run_analysis(paths, select=select, ignore=ignore)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    renderer = {"text": render_text, "json": render_json, "github": render_github}[output]
    print(renderer(result.findings, result.files_scanned))
    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
