"""``atomic-write``: durable-directory writes go through atomicio.

Job records, progress mirrors, result archives and telemetry dumps are
read concurrently from other processes and must survive a crash
mid-write — so every write under ``repro/service`` and ``repro/io``
must flow through :mod:`repro.utils.atomicio` (tmp sibling +
``os.replace``).  A raw ``open(path, "w")``, ``Path.write_text``,
``json.dump`` or ``np.save*`` in those trees is a torn-file bug
waiting for a crash.

Writes lexically inside a ``with atomic_output(...)`` block are the
blessed pattern itself and are exempt, as are writes to ``*tmp*``-named
targets.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.model import Finding, ParsedFile, Project

RULES = {
    "atomic-write": (
        "files under durable directories (repro/service, repro/io) are "
        "published via repro.utils.atomicio (tmp + os.replace), never "
        "written in place"
    ),
}

SCOPES = ("src/repro/service/", "src/repro/io/")

_WRITE_METHODS = {"write_text", "write_bytes"}

HINT = (
    "route the write through repro.utils.atomicio "
    "(atomic_write_json/atomic_write_text, or `with atomic_output(path) "
    "as tmp:` for binary formats)"
)


def _mode_of(call: ast.Call) -> Optional[str]:
    """The mode argument of an ``open()`` call, when statically known."""
    mode = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _inside_atomic_output(pf: ParsedFile, node: ast.AST) -> bool:
    for anc in pf.ancestors(node):
        if not isinstance(anc, ast.With):
            continue
        for item in anc.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                func = expr.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else ""
                )
                if name == "atomic_output":
                    return True
    return False


def _is_tmp_target(expr: ast.AST) -> bool:
    text = ast.unparse(expr).lower()
    return "tmp" in text or "temp" in text


def _check_file(pf: ParsedFile) -> Iterator[Finding]:
    for node in ast.walk(pf.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        finding = None
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode_of(node)
            if mode and any(c in mode for c in "wax"):
                if node.args and _is_tmp_target(node.args[0]):
                    continue
                finding = (
                    f"open(..., {mode!r}) writes in place in a durable "
                    "directory"
                )
        elif isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            if _is_tmp_target(func.value):
                continue
            finding = (
                f".{func.attr}() writes in place in a durable directory"
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "dump"
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            finding = "json.dump() writes in place in a durable directory"
        elif isinstance(func, ast.Attribute) and func.attr.startswith("save"):
            base = func.value
            if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
                if node.args and _is_tmp_target(node.args[0]):
                    continue
                finding = (
                    f"np.{func.attr}() writes in place in a durable "
                    "directory"
                )
        if finding is None:
            continue
        if _inside_atomic_output(pf, node):
            continue
        yield Finding(
            path=pf.rel,
            line=node.lineno,
            rule="atomic-write",
            message=finding,
            hint=HINT,
        )


def check(project: Project) -> Iterator[Finding]:
    for pf in project.files:
        if pf.tree is None or not pf.rel.startswith(SCOPES):
            continue
        yield from _check_file(pf)
