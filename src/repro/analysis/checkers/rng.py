"""rng-discipline: all randomness flows through :mod:`repro.utils.rng`.

The determinism contract of the pipeline is that one top-level seed fixes
every stochastic stage: components accept an ``int | np.random.Generator``
and coerce it with ``ensure_rng`` / ``derive_rng`` / ``spawn_rngs``.  A
single ``np.random.default_rng()`` (fresh OS entropy) or stdlib ``random``
call anywhere else silently breaks seeded-parity tests, so this rule flags:

* ``import random`` / ``from random import ...`` (the stdlib module);
* any call into the ``numpy.random`` *module* namespace —
  ``np.random.default_rng``, ``np.random.seed``, ``np.random.SeedSequence``,
  legacy samplers like ``np.random.rand`` — whether reached through
  ``np``/``numpy`` or a ``from numpy import random`` alias.

Method calls on a ``Generator`` object (``rng.integers(...)``) are the
sanctioned spelling and are never flagged; neither are annotations such as
``np.random.Generator``, which are attribute reads, not calls.  The rule
does not apply inside ``utils/rng.py`` itself — that module is the one
place allowed to mint generators.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.analysis.core import Checker, ModuleContext, path_matches
from repro.analysis.registry import register

#: The only module allowed to call into numpy.random / stdlib random.
ALLOWED_SUFFIX = "utils/rng.py"


@register
class RngDisciplineChecker(Checker):
    rule = "rng-discipline"
    description = (
        "randomness must arrive as a Generator or via utils/rng "
        "(no np.random.* / stdlib random outside utils/rng.py)"
    )

    def __init__(self) -> None:
        super().__init__()
        self._numpy_aliases: Set[str] = set()
        self._numpy_random_aliases: Set[str] = set()
        self._stdlib_random_aliases: Set[str] = set()

    def check_module(self, ctx: ModuleContext):
        if path_matches(ctx.path, ALLOWED_SUFFIX):
            return []
        self._numpy_aliases = set()
        self._numpy_random_aliases = set()
        self._stdlib_random_aliases = set()
        return super().check_module(ctx)

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                self._numpy_aliases.add(bound)
                if alias.name == "numpy.random" and alias.asname:
                    self._numpy_random_aliases.add(alias.asname)
            elif alias.name == "random":
                self._stdlib_random_aliases.add(bound)
                self.report(
                    node,
                    "stdlib random imported; route randomness through "
                    "repro.utils.rng (ensure_rng/derive_rng)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            self.report(
                node,
                "stdlib random imported; route randomness through "
                "repro.utils.rng (ensure_rng/derive_rng)",
            )
        elif node.module == "numpy" and node.level == 0:
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_aliases.add(alias.asname or "random")
        elif node.module == "numpy.random" and node.level == 0:
            names = ", ".join(alias.name for alias in node.names)
            self.report(
                node,
                f"numpy.random imported directly ({names}); obtain generators "
                "via repro.utils.rng (ensure_rng/derive_rng/spawn_rngs)",
            )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def _is_numpy_random_namespace(self, node: ast.AST) -> bool:
        """True for expressions naming the numpy.random module itself."""
        if isinstance(node, ast.Name):
            return node.id in self._numpy_random_aliases
        if isinstance(node, ast.Attribute) and node.attr == "random":
            return isinstance(node.value, ast.Name) and node.value.id in self._numpy_aliases
        return False

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if self._is_numpy_random_namespace(func.value):
                self.report(
                    node,
                    f"call to np.random.{func.attr}; obtain generators via "
                    "repro.utils.rng (ensure_rng/derive_rng/spawn_rngs) or "
                    "accept an np.random.Generator argument",
                )
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id in self._stdlib_random_aliases
            ):
                self.report(
                    node,
                    f"call to stdlib random.{func.attr}; route randomness "
                    "through repro.utils.rng",
                )
        self.generic_visit(node)
