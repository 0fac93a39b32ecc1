"""repro-lint driver: collect files, run checkers, report findings.

Public surface:

* :func:`lint` — the library API: returns the post-pragma,
  post-baseline findings for a tree.
* :func:`main` — the CLI (``python -m repro.analysis`` and
  ``repro lint``): table or JSON output, ``--write-baseline``, and the
  exit-code contract (0 clean, 1 findings, 2 usage/parse error).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.analysis.checkers import ALL_CHECKERS, ALL_RULES
from repro.analysis.model import Finding, ParsedFile, Project

__all__ = ["lint", "build_project", "main"]

JSON_SCHEMA = "repro-lint/1"


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor holding ``src/repro`` (defaults to this file's
    own checkout, so the linter works from any CWD)."""
    candidates = []
    if start is not None:
        candidates.append(Path(start).resolve())
    candidates.append(Path.cwd())
    candidates.append(Path(__file__).resolve().parents[3])
    for base in candidates:
        for probe in (base, *base.parents):
            if (probe / "src" / "repro").is_dir():
                return probe
    raise FileNotFoundError(
        "cannot locate the repository root (no src/repro ancestor)"
    )


def build_project(
    root: Optional[Union[str, Path]] = None,
    paths: Optional[Sequence[Union[str, Path]]] = None,
) -> Project:
    """Parse the linted tree: ``src/repro/**/*.py`` by default, or the
    explicit ``paths`` (files or directories) when given."""
    root_path = find_repo_root(Path(root) if root else None)
    files: List[Path] = []
    if paths:
        for p in paths:
            p = Path(p)
            if not p.is_absolute():
                p = root_path / p
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            else:
                files.append(p)
    else:
        files = sorted((root_path / "src" / "repro").rglob("*.py"))
    parsed = []
    for path in files:
        if "__pycache__" in path.parts:
            continue
        rel = path.resolve().relative_to(root_path).as_posix()
        parsed.append(ParsedFile(path, rel))
    return Project(root=root_path, files=parsed)


def lint(
    root: Optional[Union[str, Path]] = None,
    paths: Optional[Sequence[Union[str, Path]]] = None,
    rules: Optional[Iterable[str]] = None,
    baseline: Optional[Union[str, Path]] = None,
    respect_pragmas: bool = True,
) -> List[Finding]:
    """Run every checker over the tree and return surviving findings.

    ``rules`` restricts to a subset of rule ids; ``baseline`` points at
    a committed baseline file whose entries are filtered out;
    ``respect_pragmas=False`` reports pragma-suppressed findings too
    (used by ``--write-baseline`` tooling and the fixture tests).
    """
    selected = set(rules) if rules is not None else set(ALL_RULES)
    unknown = selected - set(ALL_RULES)
    if unknown:
        raise ValueError(
            f"unknown rule ids {sorted(unknown)}; known: "
            f"{sorted(ALL_RULES)}"
        )
    project = build_project(root, paths)
    by_rel = {pf.rel: pf for pf in project.files}
    findings: List[Finding] = []
    for pf in project.files:
        if pf.syntax_error is not None:
            findings.append(
                Finding(
                    path=pf.rel,
                    line=pf.syntax_error.lineno or 1,
                    rule="parse-error",
                    message=f"syntax error: {pf.syntax_error.msg}",
                    text=pf.line_text(pf.syntax_error.lineno or 1),
                )
            )
    for checker in ALL_CHECKERS:
        if not set(checker.RULES) & selected:
            continue
        for finding in checker.check(project):
            if finding.rule not in selected:
                continue
            pf = by_rel.get(finding.path)
            if pf is not None:
                if respect_pragmas and pf.allows(
                    finding.line, finding.rule
                ):
                    continue
                finding = Finding(
                    path=finding.path,
                    line=finding.line,
                    rule=finding.rule,
                    message=finding.message,
                    hint=finding.hint,
                    text=pf.line_text(finding.line),
                )
            findings.append(finding)
    if baseline is not None:
        keys = load_baseline(baseline)
        findings = [f for f in findings if f.baseline_key not in keys]
    seen = set()
    unique: List[Finding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        marker = (f.path, f.line, f.rule)
        if marker in seen:
            continue
        seen.add(marker)
        unique.append(f)
    return unique


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _format_table(findings: List[Finding]) -> str:
    lines = []
    for f in findings:
        lines.append(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    lines.append(
        f"{len(findings)} finding(s)"
        if findings
        else "repro-lint: clean"
    )
    return "\n".join(lines)


def _format_json(findings: List[Finding]) -> str:
    counts: dict = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return json.dumps(
        {
            "schema": JSON_SCHEMA,
            "rules": ALL_RULES,
            "counts": counts,
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
        sort_keys=True,
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter for this repository: enforces "
            "the clock/atomic-write/lock/fingerprint/"
            "registry/telemetry contracts (see CONTRIBUTING.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--root", help="repository root (default: auto-detected)"
    )
    parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        help=(
            "baseline file of grandfathered findings (default: "
            f"{DEFAULT_BASELINE_NAME} at the repo root, when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its invariant and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in sorted(ALL_RULES):
            print(f"{rule}: {ALL_RULES[rule]}")
        return 0
    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        root = find_repo_root(Path(args.root) if args.root else None)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
        elif (root / DEFAULT_BASELINE_NAME).exists():
            baseline_path = root / DEFAULT_BASELINE_NAME
    try:
        findings = lint(
            root=root,
            paths=args.paths or None,
            rules=rules,
            baseline=None if args.write_baseline else baseline_path,
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        target = baseline_path or root / DEFAULT_BASELINE_NAME
        count = write_baseline(target, findings)
        print(f"repro-lint: wrote {count} entr(y/ies) to {target}")
        return 0
    output = (
        _format_json(findings)
        if args.format == "json"
        else _format_table(findings)
    )
    print(output)
    if any(f.rule == "parse-error" for f in findings):
        return 2
    return 1 if findings else 0
