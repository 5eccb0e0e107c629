"""Rendering of lint results: human text and a stable JSON schema.

The JSON layout is versioned (``schema_version``) and covered by a schema
test so downstream consumers (the CI artifact upload, dashboards) can rely
on it; add keys rather than renaming them, and bump the version for any
breaking change.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.core import Finding

#: Bump on any breaking change to the JSON layout below.
#: v3: findings carry no ``provenance`` array (v2 did).
REPORT_SCHEMA_VERSION = 3


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def render_text(findings: Sequence[Finding], files_scanned: int) -> str:
    """One ``path:line:col: rule message`` line per finding plus a summary."""
    lines = [finding.format() for finding in sort_findings(findings)]
    noun = "file" if files_scanned == 1 else "files"
    if findings:
        count = len(findings)
        lines.append(
            f"Found {count} violation{'s' if count != 1 else ''} in {files_scanned} {noun}."
        )
    else:
        lines.append(f"All clear: {files_scanned} {noun}, 0 violations.")
    return "\n".join(lines)


def report_dict(findings: Sequence[Finding], files_scanned: int) -> Dict:
    """The ``--json`` payload as a plain dict (stable, versioned)."""
    ordered = sort_findings(findings)
    counts: Dict[str, int] = {}
    for finding in ordered:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "repro-lint",
        "files_scanned": files_scanned,
        "violations": len(ordered),
        "counts_by_rule": dict(sorted(counts.items())),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "message": finding.message,
            }
            for finding in ordered
        ],
    }


def render_json(findings: Sequence[Finding], files_scanned: int) -> str:
    return json.dumps(report_dict(findings, files_scanned), indent=2, sort_keys=False)


def _escape_gh_data(text: str) -> str:
    """Escape a workflow-command *message* (%, CR, LF)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_gh_property(text: str) -> str:
    """Escape a workflow-command *property* value (adds , and :)."""
    return _escape_gh_data(text).replace(",", "%2C").replace(":", "%3A")


def render_github(findings: Sequence[Finding], files_scanned: int) -> str:
    """GitHub Actions workflow commands: one ``::error`` line per finding.

    Emitted by ``--format github`` in the CI lint job so findings annotate
    the PR diff at the offending line.  A trailing summary line (not a
    workflow command) mirrors the text renderer.
    """
    lines = []
    for finding in sort_findings(findings):
        lines.append(
            "::error file={file},line={line},col={col},title={title}::{message}".format(
                file=_escape_gh_property(finding.path),
                line=finding.line,
                col=finding.col,
                title=_escape_gh_property(f"repro-lint {finding.rule}"),
                message=_escape_gh_data(finding.message),
            )
        )
    noun = "file" if files_scanned == 1 else "files"
    count = len(lines)
    if count:
        lines.append(f"Found {count} violation{'s' if count != 1 else ''} in {files_scanned} {noun}.")
    else:
        lines.append(f"All clear: {files_scanned} {noun}, 0 violations.")
    return "\n".join(lines)
