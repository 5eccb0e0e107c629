"""timer-discipline: measurement code uses the monotonic clock.

Every published number in ``benchmarks/`` and every ``TimingRegistry``
stage total is a sum of differences of two clock reads; ``time.time()``
is wall-clock and steps under NTP adjustment, which turns a 40 ms stage
into a negative or wildly wrong duration exactly often enough to poison a
best-of-N measurement.  ``time.perf_counter()`` is monotonic with the highest
available resolution and is what :mod:`repro.utils.timing` is built on.

The rule flags calls to ``time.time`` (through any alias of the ``time``
module) and ``from time import time`` itself.  Reading wall-clock for
*timestamps* (log lines, report metadata) is legitimate — spell it
``datetime.now`` or suppress the line with an inline marker to make the
intent explicit.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.analysis.core import Checker, ModuleContext
from repro.analysis.registry import register


@register
class TimerDisciplineChecker(Checker):
    rule = "timer-discipline"
    description = "durations come from time.perf_counter(), never time.time()"

    def __init__(self) -> None:
        super().__init__()
        self._time_aliases: Set[str] = set()
        self._bare_time_fns: Set[str] = set()

    def check_module(self, ctx: ModuleContext):
        self._time_aliases = set()
        self._bare_time_fns = set()
        return super().check_module(ctx)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name == "time":
                    self._bare_time_fns.add(alias.asname or "time")
                    self.report(
                        node,
                        "wall-clock time() imported from time; use "
                        "time.perf_counter() for durations",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ):
            self.report(
                node,
                "time.time() steps with the wall clock; use "
                "time.perf_counter() for durations",
            )
        elif isinstance(func, ast.Name) and func.id in self._bare_time_fns:
            self.report(
                node,
                "wall-clock time() call; use time.perf_counter() for durations",
            )
        self.generic_visit(node)
