"""The rule registry.

Checker classes self-register via the :func:`register` decorator; the CLI
and the test suite enumerate them through :func:`all_rules`.  Importing
:mod:`repro.analysis.checkers` populates the registry — the runner does
that lazily so ``import repro.analysis`` stays cheap.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Type

from repro.analysis.core import Checker

_RULES: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the registry (unique rule ids)."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} must set a rule id")
    if cls.rule in _RULES and _RULES[cls.rule] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule!r}")
    _RULES[cls.rule] = cls
    return cls


def _load_builtin_checkers() -> None:
    # Imported for the registration side effect of each checker module.
    import repro.analysis.checkers  # noqa: F401


def all_rules() -> Dict[str, Type[Checker]]:
    """Rule id -> checker class, built-ins loaded."""
    _load_builtin_checkers()
    return dict(sorted(_RULES.items()))


def get_rule(rule: str) -> Type[Checker]:
    _load_builtin_checkers()
    return _RULES[rule]


def resolve_selection(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Type[Checker]]:
    """The checker classes enabled by ``--select`` / ``--ignore``.

    ``select=None`` enables every registered rule; unknown rule ids raise
    ``ValueError`` so a typo in CI fails loudly instead of silently
    checking nothing.
    """
    rules = all_rules()
    selected: Set[str] = set(rules) if select is None else set(select)
    ignored: Set[str] = set(ignore) if ignore is not None else set()
    unknown = (selected | ignored) - set(rules)
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {sorted(unknown)}; known: {sorted(rules)}"
        )
    return [rules[rule] for rule in sorted(selected - ignored)]
