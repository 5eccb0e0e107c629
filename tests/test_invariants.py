"""The repository's four contracts, checked on every module of ``src/`` and
``benchmarks/``.

Each contract is a convention ruff cannot see, so each is an AST rule here.
Names are resolved from the module's own imports.

* ``rng-discipline``: randomness reaches a stage as a ``Generator`` or
  through :mod:`repro.utils.rng`, so one seed fixes every stage. Flags
  ``import random``, ``from random import ...``, ``from numpy.random
  import ...`` and any call into the ``numpy.random`` module namespace
  (``np.random.default_rng()``, ``.seed``, ``.SeedSequence``, ``.rand``).
  A generator's methods and the annotation ``np.random.Generator`` are not
  calls into the module.
* ``shm-ownership``: only :class:`repro.parallel.shm.ShmArena` creates
  shared-memory segments, so every segment is unlinked exactly once.
  Flags ``SharedMemory(...)`` (any ``<module>.SharedMemory`` or an
  imported alias of the class) whose ``create`` argument, keyword or
  second positional, is not the literal ``False``.
* ``atomic-write``: final destinations are written through
  :func:`repro.utils.io.atomic_write` (temp file, fsync, ``os.replace``),
  so a crash cannot leave a torn file. Flags ``open(...)`` and
  ``<x>.open(...)`` with a constant mode starting with ``"w"`` or ``"x"``.
* ``timer-discipline``: durations come from ``time.perf_counter()``, which
  is monotonic. Flags ``time.time()`` through any alias of the module and
  ``from time import time``.

``utils/rng.py``, ``parallel/shm.py`` and ``utils/io.py`` are exempt from
the rule they implement. A comment ``# repro-lint: disable=<rule>[,<rule>]``
or ``disable=all`` silences the line it is on, which must be the line the
finding is reported at (the first line of its statement or call).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The module each rule exempts: the one that implements the contract.
ALLOWED = {
    "rng-discipline": "utils/rng.py",
    "shm-ownership": "parallel/shm.py",
    "atomic-write": "utils/io.py",
}
MESSAGES = {
    "rng-discipline": "randomness outside repro.utils.rng; take a Generator or use "
    "ensure_rng/derive_rng/spawn_rngs",
    "shm-ownership": "SharedMemory created outside parallel/shm.py; allocate through ShmArena",
    "atomic-write": "destination opened for writing outside utils/io.py; use atomic_write",
    "timer-discipline": "wall-clock time(); use time.perf_counter() for durations",
}
_MARKER = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s\-]+)")


class _Contracts(ast.NodeVisitor):
    """Collects ``(line, rule)`` for every violation in one module."""

    def __init__(self) -> None:
        self.findings: List[Tuple[int, str]] = []
        self.numpy = set()
        self.numpy_random = set()
        self.stdlib_random = set()
        self.time_module = set()
        self.wall_clock = set()
        self.shared_memory = {"SharedMemory"}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                self.numpy.add(bound)
                if alias.name == "numpy.random" and alias.asname:
                    self.numpy_random.add(alias.asname)
            elif alias.name == "random":
                self.stdlib_random.add(bound)
                self.findings.append((node.lineno, "rng-discipline"))
            elif alias.name == "time":
                self.time_module.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            return
        if node.module in ("random", "numpy.random"):
            self.findings.append((node.lineno, "rng-discipline"))
        for alias in node.names:
            bound = alias.asname or alias.name
            if (node.module, alias.name) == ("numpy", "random"):
                self.numpy_random.add(bound)
            elif (node.module, alias.name) == ("multiprocessing.shared_memory", "SharedMemory"):
                self.shared_memory.add(bound)
            elif (node.module, alias.name) == ("time", "time"):
                self.wall_clock.add(bound)
                self.findings.append((node.lineno, "timer-discipline"))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        attr = func.attr if isinstance(func, ast.Attribute) else None
        owner = func.value if attr else None
        owner_name = owner.id if isinstance(owner, ast.Name) else None
        if owner_name in self.numpy_random | self.stdlib_random or (
            isinstance(owner, ast.Attribute) and owner.attr == "random"
            and isinstance(owner.value, ast.Name) and owner.value.id in self.numpy
        ):
            self.findings.append((node.lineno, "rng-discipline"))
        if name in self.shared_memory or attr == "SharedMemory":
            create = node.args[1] if len(node.args) >= 2 else None
            create = next((k.value for k in node.keywords if k.arg == "create"), create)
            attaches = isinstance(create, ast.Constant) and create.value is False
            if create is not None and not attaches:
                self.findings.append((node.lineno, "shm-ownership"))
        if name == "open" or attr == "open":
            # open(file, mode) takes the mode second, Path.open(mode) first.
            position = 1 if name else 0
            mode = node.args[position] if len(node.args) > position else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            mode = mode.value if isinstance(mode, ast.Constant) else None
            if isinstance(mode, str) and mode[:1] in ("w", "x"):
                self.findings.append((node.lineno, "atomic-write"))
        if name in self.wall_clock or (attr == "time" and owner_name in self.time_module):
            self.findings.append((node.lineno, "timer-discipline"))
        self.generic_visit(node)


def violations(source: str, path: str = "module.py") -> List[Tuple[int, str]]:
    """Sorted ``(line, rule)`` findings of one module, less its exemptions."""
    contracts = _Contracts()
    contracts.visit(ast.parse(source))
    silenced = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = _MARKER.search(token.string) if token.type == tokenize.COMMENT else None
        if match:
            rules = {rule.strip() for rule in match.group(1).split(",")}
            silenced.setdefault(token.start[0], set()).update(rules)
    return sorted(
        (line, rule)
        for line, rule in contracts.findings
        if not (rule in ALLOWED and path.endswith(ALLOWED[rule]))
        and not silenced.get(line, set()) & {rule, "all"}
    )


def test_src_and_benchmarks_keep_the_contracts():
    paths = sorted(p for top in ("src", "benchmarks") for p in (REPO_ROOT / top).rglob("*.py"))
    assert len(paths) > 100, "the scan found too few modules"
    findings = []
    for path in paths:
        shown = path.relative_to(REPO_ROOT).as_posix()
        for line, rule in violations(path.read_text(encoding="utf-8"), shown):
            findings.append(f"{shown}:{line} {rule} {MESSAGES[rule]}")
    assert not findings, "\n".join(findings)


NP = "import numpy as np\n"
SHM_MODULE = "from multiprocessing import shared_memory\n"
SHM_CLASS = "from multiprocessing.shared_memory import SharedMemory\n"

#: (rule, module source, the lines flagged under the rule)
VIOLATIONS = {
    "stdlib-random-import": ("rng-discipline", "import random", [1]),
    "numpy-random-import": (
        "rng-discipline", "from numpy.random import default_rng\ndefault_rng(5)", [1]
    ),
    "fresh-entropy": ("rng-discipline", NP + "np.random.default_rng()", [2]),
    "global-seed": ("rng-discipline", NP + "np.random.seed(7)", [2]),
    "legacy-sampler": ("rng-discipline", NP + "np.random.rand(3)", [2]),
    "seed-sequence": ("rng-discipline", NP + "np.random.SeedSequence(3).spawn(2)", [2]),
    "stdlib-draw": ("rng-discipline", "import random\nrandom.random()", [1, 2]),
    "shm-module-create": (
        "shm-ownership", SHM_MODULE + "shared_memory.SharedMemory(create=True, size=64)", [2]
    ),
    "shm-class-create": ("shm-ownership", SHM_CLASS + "SharedMemory(create=True, size=64)", [2]),
    "shm-dynamic-create": ("shm-ownership", SHM_CLASS + "SharedMemory(create=flag, size=64)", [2]),
    "shm-positional-create": (
        "shm-ownership", SHM_CLASS + 'SharedMemory("segment", True, size=64)', [2]
    ),
    "shm-class-alias": (
        "shm-ownership",
        "from multiprocessing.shared_memory import SharedMemory as Segment\n"
        "Segment(create=True, size=64)",
        [2],
    ),
    "shm-module-alias": (
        "shm-ownership",
        "from multiprocessing import shared_memory as m\nm.SharedMemory(create=True, size=64)",
        [2],
    ),
    "open-wb": ("atomic-write", 'handle = open(path, "wb")', [1]),
    "open-w-encoding": ("atomic-write", 'handle = open(path, "w", encoding="utf-8")', [1]),
    "open-mode-x": ("atomic-write", 'handle = open(path, mode="x")', [1]),
    "path-open-w": ("atomic-write", 'handle = Path(path).open("w")', [1]),
    "time-import": ("timer-discipline", "from time import time as now", [1]),
    "time-time": ("timer-discipline", "import time\nstart = time.time()", [2]),
    "time-time-difference": (
        "timer-discipline", "import time\nelapsed = time.time() - start", [2]
    ),
    "imported-time": ("timer-discipline", "from time import time as now\nstart = now()", [1, 2]),
    "imported-time-difference": (
        "timer-discipline",
        "from time import time as now\nelapsed = now() - start",
        [1, 2],
    ),
}


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_violation_is_flagged_under_its_rule(case):
    rule, source, lines = VIOLATIONS[case]
    assert violations(source) == [(line, rule) for line in lines]


COMPLIANT = {
    "rng-discipline": NP + (
        "from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs\n"
        "def draws(seed, rng: np.random.Generator = None):\n"
        "    rng = ensure_rng(seed)\n"
        "    if isinstance(rng, np.random.Generator):\n"
        "        return rng.integers(3), derive_rng(seed, 'stage').normal(), spawn_rngs(seed, 4)\n"
    ),
    "shm-ownership": SHM_CLASS + (
        "SharedMemory(name=name)\n"
        "SharedMemory(name=name, create=False)\n"
        "SharedMemory(name, False)\n"
    ),
    "atomic-write": (
        "from repro.utils.io import atomic_write\n"
        'open(path, "rb")\n'
        'open(path, "r+b")\n'  # an in-place edit, not a destination write
        'atomic_write(path, "w", encoding="utf-8")\n'
        "open(path, mode)\n"  # a dynamic mode is not guessed at
    ),
    "timer-discipline": (
        "import time\nstart = time.perf_counter()\nelapsed = time.perf_counter() - start\n"
    ),
}


@pytest.mark.parametrize("rule", sorted(COMPLIANT))
def test_compliant_twin_is_clean(rule):
    assert violations(COMPLIANT[rule]) == []


EXEMPT = {
    "rng-discipline": NP + "rng = np.random.default_rng(seed)",
    "shm-ownership": SHM_MODULE + "segment = shared_memory.SharedMemory(create=True, size=n)",
    "atomic-write": 'handle = open(tmp, "wb")',
}


@pytest.mark.parametrize("rule", sorted(ALLOWED))
def test_the_module_implementing_a_rule_is_exempt_from_it_alone(rule):
    source = EXEMPT[rule] + "\nimport time\nelapsed = time.time()"
    line = len(EXEMPT[rule].splitlines())
    assert violations(source, "src/repro/" + ALLOWED[rule]) == [(line + 2, "timer-discipline")]
    assert violations(source, "src/repro/elsewhere.py") == [
        (line, rule),
        (line + 2, "timer-discipline"),
    ]


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
@pytest.mark.parametrize(
    "comment, silenced",
    [
        pytest.param("# repro-lint: disable={rule}", True, id="own-rule"),
        pytest.param("# repro-lint: disable=all", True, id="all"),
        pytest.param("#repro-lint: disable=timer-discipline, {rule}", True, id="rule-list"),
        pytest.param("# repro-lint: disable={other}", False, id="other-rule"),
        # In a string literal, not a comment.
        pytest.param("; _ = '# repro-lint: disable=all'", False, id="in-string"),
    ],
)
def test_suppression_comment(comment, silenced, case):
    rule, source, lines = VIOLATIONS[case]
    other = "timer-discipline" if rule != "timer-discipline" else "atomic-write"
    marker = comment.format(rule=rule, other=other)
    marked = "\n".join(f"{line}  {marker}" for line in source.splitlines())
    expected = [] if silenced else [(line, rule) for line in lines]
    assert violations(marked) == expected


def test_a_suppression_covers_only_its_own_line():
    source = (
        NP + "# repro-lint: disable=all\nnp.random.seed(7)\n"
        "np.random.seed(8)  # repro-lint: disable=all"
    )
    assert violations(source) == [(3, "rng-discipline")]
