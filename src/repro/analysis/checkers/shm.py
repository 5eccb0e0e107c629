"""shm-ownership: only :class:`repro.parallel.shm.ShmArena` creates segments.

The parallel fit's ``/dev/shm`` hygiene rests on a single-owner rule: the
arena creates every segment, tracks it in ``_live``, and guarantees
close+unlink on exit even when a shard raises; workers *attach* without
resource-tracker registration so the parent stays the one authority.  A
``SharedMemory(create=True)`` call anywhere else produces a segment no
arena will ever unlink — a leak the teardown-hygiene tests cannot see
because they only watch arena-created names.

The rule flags every ``SharedMemory(...)`` call whose ``create`` argument
— keyword or second positional (``SharedMemory(name, True)``) — is not
the literal ``False`` (attaching by name is fine anywhere), in any module
other than ``parallel/shm.py``.  A dynamic ``create=flag`` argument is
flagged too: ownership must be decidable statically.  The callee is
matched as any ``<module>.SharedMemory`` attribute or as a bare name the
module binds with ``from multiprocessing.shared_memory import
SharedMemory [as alias]``.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from repro.analysis.core import Checker, ModuleContext, path_matches
from repro.analysis.registry import register

#: The single module allowed to create shared-memory segments.
ALLOWED_SUFFIX = "parallel/shm.py"


@register
class ShmOwnershipChecker(Checker):
    rule = "shm-ownership"
    description = (
        "SharedMemory(create=True) only inside parallel/shm.py "
        "(ShmArena is the single segment owner)"
    )

    def __init__(self) -> None:
        super().__init__()
        self._bare_names: Set[str] = set()

    def check_module(self, ctx: ModuleContext):
        if path_matches(ctx.path, ALLOWED_SUFFIX):
            return []
        self._bare_names = {"SharedMemory"}
        return super().check_module(ctx)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "multiprocessing.shared_memory" and node.level == 0:
            for alias in node.names:
                if alias.name == "SharedMemory":
                    self._bare_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _is_shared_memory(self, func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id in self._bare_names
        return isinstance(func, ast.Attribute) and func.attr == "SharedMemory"

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_shared_memory(node.func):
            # create is SharedMemory's second parameter: it arrives as the
            # second positional argument or as a create= keyword.
            create: Optional[ast.AST] = None
            if len(node.args) >= 2:
                create = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "create":
                    create = keyword.value
            if create is not None and not (
                isinstance(create, ast.Constant) and create.value is False
            ):
                self.report(
                    node,
                    "SharedMemory segment created outside parallel/shm.py; "
                    "allocate through ShmArena so the segment is "
                    "close+unlink-guaranteed (and leak-testable)",
                )
        self.generic_visit(node)
