"""atomic-write: destination files are written through the durable helper.

A plain ``open(path, "wb")`` against a final destination has a torn-write
window: a crash (or injected fault) between the first ``write()`` and the
close leaves a half-written file that a later reader parses into garbage.
:func:`repro.utils.io.atomic_write` closes the window — same-directory
temp file, fsync, ``os.replace`` — and the reliability suite proves it at
arbitrary byte boundaries, so persistence code must route through it.

The rule flags every ``open()`` / ``*.open()`` call whose mode string is a
static constant starting with ``"w"`` or ``"x"`` (create-and-write modes),
in any module other than ``utils/io.py`` itself.  Read modes and in-place
edit modes (``"r+b"`` — how the fault harness flips bytes) are fine, and a
dynamic mode expression is not guessed at.  Deliberate raw writes (e.g.
crafting hostile files in fixtures) can carry a
``# repro-lint: disable=atomic-write`` suppression.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.core import Checker, ModuleContext, path_matches
from repro.analysis.registry import register

#: The durable-writer module allowed to open destinations directly.
ALLOWED_SUFFIX = "utils/io.py"


@register
class AtomicWriteChecker(Checker):
    rule = "atomic-write"
    description = (
        "open(path, 'w'/'wb') on final destinations only inside utils/io.py "
        "(use atomic_write: temp file + fsync + os.replace)"
    )

    def check_module(self, ctx: ModuleContext):
        if path_matches(ctx.path, ALLOWED_SUFFIX):
            return []
        return super().check_module(ctx)

    @staticmethod
    def _is_open(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "open"
        if isinstance(func, ast.Attribute):
            return func.attr == "open"
        return False

    @staticmethod
    def _mode_argument(node: ast.Call) -> Optional[ast.AST]:
        # Builtin open(file, mode) takes mode as the second positional;
        # the Path.open(mode) method takes it as the first.
        position = 0 if isinstance(node.func, ast.Attribute) else 1
        mode: Optional[ast.AST] = None
        if len(node.args) > position:
            mode = node.args[position]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        return mode

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_open(node.func):
            mode = self._mode_argument(node)
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and mode.value[:1] in ("w", "x")
            ):
                self.report(
                    node,
                    f"file opened with mode {mode.value!r} outside utils/io.py; "
                    "write final destinations through atomic_write() so a "
                    "crash mid-write cannot leave a torn file",
                )
        self.generic_visit(node)
