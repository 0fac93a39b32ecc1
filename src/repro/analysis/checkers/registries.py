"""``registry-reachable``: registered names actually reach the CLI.

The plugin registries (``register_solver`` / ``register_backend`` /
``register_executor``) only run their registrations when the defining
module is imported — a solver registered in a module nothing imports is
silently absent from ``repro reconstruct --solver`` choices.  And a CLI
argument whose ``choices=`` is a hard-coded list goes stale the moment
someone registers a new name.  This rule flags both:

* a module that calls a ``register_*`` function (as a decorator or
  directly) but is imported by no other module in the tree (and is not
  a package ``__init__``);
* an ``add_argument`` for ``--solver``/``--backend``/``--executor`` in
  the CLI whose ``choices`` is a literal list instead of the registry's
  ``*_names()`` function.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.model import Finding, Project

RULES = {
    "registry-reachable": (
        "every register_solver/backend/executor registration lives in "
        "an imported module, and CLI choices come from the registry's "
        "*_names() functions, not hard-coded lists"
    ),
}

_REGISTER_FUNCS = {
    "register_solver",
    "register_backend",
    "register_executor",
}
_REGISTRY_FLAGS = {"--solver", "--algorithm", "--backend", "--executor"}
CLI_MODULE = "repro.cli"

HINT_IMPORT = (
    "import the module from its package __init__ (or wherever the "
    "registry is assembled) so the registration executes"
)
HINT_CHOICES = (
    "use solver_names()/backend_names()/executor_names() for choices= "
    "so new registrations appear automatically; a deliberately narrower "
    "list needs '# repro-lint: allow[registry-reachable] -- <why>'"
)


def _imported_modules(project: Project) -> Set[str]:
    """Every dotted module name imported anywhere in the tree."""
    imported: Set[str] = set()
    for _, pf in project.modules():
        if pf.tree is None:
            continue
        for node in ast.walk(pf.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    imported.add(name.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                for name in node.names:
                    # `from repro.backend import cupy_backend`
                    imported.add(f"{node.module}.{name.name}")
    return imported


def _registrations(project: Project) -> List[Tuple[str, str, str, int]]:
    """(module, registry-func, registered-name, lineno) tuples, one per
    ``register_*("name")`` call — as a decorator or applied directly."""
    out = []
    for module, pf in project.modules():
        if pf.tree is None:
            continue
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else ""
            )
            if name not in _REGISTER_FUNCS:
                continue
            reg_name = "?"
            if node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    reg_name = first.value
            out.append((module, name, reg_name, node.lineno))
    return out


def _check_cli_choices(project: Project) -> Iterator[Finding]:
    pf = project.module(CLI_MODULE)
    if pf is None or pf.tree is None:
        return
    for node in ast.walk(pf.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "add_argument"
        ):
            continue
        flags = {
            arg.value
            for arg in node.args
            if isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
        }
        hit = flags & _REGISTRY_FLAGS
        if not hit:
            continue
        for kw in node.keywords:
            if kw.arg != "choices":
                continue
            if isinstance(kw.value, (ast.List, ast.Tuple, ast.Set)):
                yield Finding(
                    path=pf.rel,
                    line=kw.value.lineno,
                    rule="registry-reachable",
                    message=(
                        f"{sorted(hit)[0]} uses a hard-coded choices "
                        "list; it will go stale when a new name is "
                        "registered"
                    ),
                    hint=HINT_CHOICES,
                )


def check(project: Project) -> Iterator[Finding]:
    imported = _imported_modules(project)
    for module, func, reg_name, lineno in _registrations(project):
        pf = project.module(module)
        is_package_init = pf is not None and pf.rel.endswith(
            "__init__.py"
        )
        if is_package_init or module == CLI_MODULE:
            continue
        if module in imported:
            continue
        yield Finding(
            path=pf.rel if pf else module,
            line=lineno,
            rule="registry-reachable",
            message=(
                f"{func}({reg_name!r}) lives in {module}, which no "
                "other module imports — the registration never runs"
            ),
            hint=HINT_IMPORT,
        )
    yield from _check_cli_choices(project)
