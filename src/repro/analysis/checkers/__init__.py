"""Checker registry for repro-lint.

Each checker module exposes ``RULES`` (``{rule_id: one-line invariant}``)
and ``check(project) -> Iterable[Finding]``.  Adding a checker means
writing such a module and listing it here — the engine, CLI ``--rules``
filter, docs table, and fixture tests all iterate this registry.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.checkers import (
    atomic,
    clock,
    locks,
    registries,
    telemetry,
)

__all__ = ["ALL_CHECKERS", "ALL_RULES"]

ALL_CHECKERS = [
    clock,
    atomic,
    locks,
    registries,
    telemetry,
]

ALL_RULES: Dict[str, str] = {}
for _checker in ALL_CHECKERS:
    for _rule, _doc in _checker.RULES.items():
        if _rule in ALL_RULES:  # pragma: no cover - registry bug
            raise RuntimeError(f"duplicate repro-lint rule id {_rule!r}")
        ALL_RULES[_rule] = _doc


def rules_of(checker) -> List[str]:
    return sorted(checker.RULES)
