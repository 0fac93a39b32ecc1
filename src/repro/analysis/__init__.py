"""repro-lint: AST-based enforcement of this repo's correctness contracts.

The reproduction's trickiest invariants are not type errors — they are
*discipline* rules that unit tests only catch when a race or crash
actually fires: monotonic-only scheduling clocks, tmp+rename
publication of durable files, no blocking work under registry locks,
registry reachability, and pay-nothing-when-disabled telemetry.  This
package checks them mechanically, per commit.

Usage::

    python -m repro.analysis            # table output, exit 1 on findings
    repro lint --format json            # machine-readable (CI gate)
    repro lint --list-rules             # every rule id + invariant

Suppress a deliberate exception inline with
``# repro-lint: allow[<rule>] -- <justification>``; grandfather
pre-existing debt with ``repro lint --write-baseline``.  See
CONTRIBUTING.md for the rule-by-rule contract.
"""

from __future__ import annotations

from repro.analysis.checkers import ALL_RULES
from repro.analysis.engine import build_project, lint, main
from repro.analysis.model import Finding

__all__ = ["Finding", "ALL_RULES", "lint", "build_project", "main"]
