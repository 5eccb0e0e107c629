"""repro-lint: AST-based enforcement of the repository's contracts.

The library is built around a handful of conventions that ordinary tests
cannot see breaking — randomness routed through :mod:`repro.utils.rng`,
shared-memory segments owned by :class:`repro.parallel.shm.ShmArena`,
writes routed through :func:`repro.utils.io.atomic_write`, and monotonic
timers in measurement code.  This package turns those conventions into
machine-checked invariants:

``python -m repro.analysis [paths] [--json] [--select/--ignore]``

scans the given trees (``src benchmarks`` by default), prints findings as
``path:line:col: rule message`` (or a stable JSON report with ``--json``)
and exits non-zero when anything is flagged.  A finding is silenced inline
with ``# repro-lint: disable=<rule>`` on the offending line.

See :mod:`repro.analysis.registry` for the rule catalogue and the README's
"Static analysis" section for the contract each rule encodes.
"""

from repro.analysis.core import Checker, Finding, ModuleContext
from repro.analysis.registry import all_rules, get_rule, register
from repro.analysis.report import (
    REPORT_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.runner import run_analysis

__all__ = [
    "Checker",
    "Finding",
    "ModuleContext",
    "REPORT_SCHEMA_VERSION",
    "all_rules",
    "get_rule",
    "register",
    "render_github",
    "render_json",
    "render_text",
    "run_analysis",
]
