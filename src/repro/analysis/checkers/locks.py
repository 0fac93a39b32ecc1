"""``lock-blocking`` / ``lock-order``: registry-lock discipline.

Registry locks (``_LOCK``, ``self._lock``, ``self._cond`` …) guard
in-memory tables that every thread touches; holding one across blocking
work (file I/O, ``close()``, ``join()``, ``sleep``, queue waits) stalls
the whole process, and acquiring two locks in opposite orders in
different call paths deadlocks it.

``lock-blocking`` flags blocking calls lexically inside a
``with <lock>:`` block, including **one level** of call propagation:
a call to a same-module function, a ``self.<method>``, or an imported
project function (``jobstore.load_record``) that itself performs
blocking I/O is flagged at the call site.  ``<lock>.wait()`` on the
*held* lock is the condition-variable idiom and exempt.  The rare
correct exception (reading state under the condition that guards its
writes, to avoid missed wakeups) carries a justified
``# repro-lint: allow[lock-blocking]`` pragma.

``lock-order`` builds the acquisition graph from nested ``with`` blocks
(again with one level of call propagation) and rejects cycles.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.model import Finding, ParsedFile, Project

RULES = {
    "lock-blocking": (
        "no blocking calls (I/O, close/join/sleep, queue waits) while "
        "holding a registry lock; condition-variable wait() on the held "
        "lock is the one exemption"
    ),
    "lock-order": (
        "lock acquisition order is globally consistent — the nested "
        "with-lock graph must be acyclic"
    ),
}

_BLOCKING_ATTRS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "close",
    "recv",
    "send",
    "sendall",
    "connect",
}

HINT_BLOCKING = (
    "restructure so the blocking work happens outside the lock (take "
    "what you need under the lock, act on it after releasing — see "
    "repro.service.service.ReconstructionService._signal_legs)"
)
HINT_ORDER = (
    "pick one global acquisition order for these locks and nest "
    "consistently everywhere"
)


def _lock_name(expr: ast.AST) -> Optional[str]:
    """Canonical lock name when ``expr`` looks like a lock, else None."""
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    else:
        return None
    low = name.lower()
    if low in ("_lock", "_cond", "lock", "cond") or low.endswith(
        ("_lock", "_cond")
    ):
        return name
    return None


def _walk_no_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function bodies —
    a callback *defined* under a lock does not *run* under it."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name → dotted project-module/function origin."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _direct_blocking(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Describe why ``call`` blocks, or None if it does not."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open()"
        if aliases.get(func.id) == "time.sleep":
            return "time.sleep()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    recv = ast.unparse(func.value)
    if (
        isinstance(func.value, ast.Name)
        and aliases.get(func.value.id) == "time"
        and func.attr == "sleep"
    ):
        return "time.sleep()"
    if func.attr in _BLOCKING_ATTRS:
        return f"{recv}.{func.attr}()"
    if func.attr == "join":
        # str.join takes exactly one positional argument; thread/process
        # join takes none (or a timeout keyword).
        if not call.args:
            return f"{recv}.join()"
        return None
    if func.attr == "wait":
        return f"{recv}.wait()"
    if func.attr in ("get", "put"):
        has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
        if has_timeout or "queue" in recv.lower():
            return f"{recv}.{func.attr}()"
    return None


class _FunctionIndex:
    """Per-module function defs + which of them block directly (the one
    level of cross-function/cross-module propagation)."""

    def __init__(self, project: Project) -> None:
        self.defs: Dict[Tuple[str, str], ast.AST] = {}
        self.blocking: Dict[Tuple[str, str], str] = {}
        self.locks_acquired: Dict[Tuple[str, str], Set[str]] = {}
        for module, pf in project.modules():
            if pf.tree is None:
                continue
            aliases = _module_aliases(pf.tree)
            for fn in pf.functions():
                key = (module, fn.name)
                self.defs[key] = fn
                for node in _walk_no_functions(fn):
                    if isinstance(node, ast.Call):
                        why = _direct_blocking(node, aliases)
                        if why and key not in self.blocking:
                            self.blocking[key] = why
                    if isinstance(node, ast.With):
                        for item in node.items:
                            lock = _lock_name(item.context_expr)
                            if lock:
                                self.locks_acquired.setdefault(
                                    key, set()
                                ).add(lock)

    def blocking_reason(
        self, module: str, call: ast.Call, aliases: Dict[str, str]
    ) -> Optional[Tuple[str, str]]:
        """(callee-name, why) when ``call`` targets a project function
        known to block, else None."""
        func = call.func
        if isinstance(func, ast.Name):
            # local function, or a from-imported project function
            key = (module, func.id)
            if key in self.blocking:
                return func.id, self.blocking[key]
            origin = aliases.get(func.id)
            if origin and "." in origin:
                mod, _, name = origin.rpartition(".")
                if (mod, name) in self.blocking:
                    return origin, self.blocking[(mod, name)]
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id != "self"
            ):
                mod = aliases.get(func.value.id)
                if mod and (mod, func.attr) in self.blocking:
                    return (
                        f"{func.value.id}.{func.attr}",
                        self.blocking[(mod, func.attr)],
                    )
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                key = (module, func.attr)
                if key in self.blocking:
                    return f"self.{func.attr}", self.blocking[key]
        return None

    def callee_locks(
        self, module: str, call: ast.Call, aliases: Dict[str, str]
    ) -> Set[str]:
        func = call.func
        if isinstance(func, ast.Name):
            key = (module, func.id)
            if key in self.locks_acquired:
                return self.locks_acquired[key]
            origin = aliases.get(func.id)
            if origin and "." in origin:
                mod, _, name = origin.rpartition(".")
                return self.locks_acquired.get((mod, name), set())
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id == "self":
                return self.locks_acquired.get((module, func.attr), set())
            mod = aliases.get(func.value.id)
            if mod:
                return self.locks_acquired.get((mod, func.attr), set())
        return set()


def _check_with_block(
    pf: ParsedFile,
    module: str,
    node: ast.With,
    locks: List[Tuple[str, str]],
    aliases: Dict[str, str],
    index: _FunctionIndex,
    edges: Dict[Tuple[str, str], Tuple[str, int]],
) -> Iterator[Finding]:
    lock_texts = {text for _, text in locks}
    stack: List[ast.AST] = [stmt for stmt in node.body]
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, ast.With):
            inner = [
                name
                for item in child.items
                for name in [_lock_name(item.context_expr)]
                if name
            ]
            if inner:
                held = locks[-1][0]
                if inner[0] != held:
                    edges.setdefault(
                        (held, inner[0]), (pf.rel, child.lineno)
                    )
                # the inner lock block is checked on its own visit
                continue
        stack.extend(ast.iter_child_nodes(child))
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        # condition-variable calls on the held lock are the idiom,
        # not a violation
        if isinstance(func, ast.Attribute) and ast.unparse(
            func.value
        ) in lock_texts:
            continue
        why = _direct_blocking(child, aliases)
        callee = None
        if why is None:
            hit = index.blocking_reason(module, child, aliases)
            if hit is not None:
                callee, why = hit
        if why is None:
            # one-level lock-order propagation through project calls
            held = locks[-1][0] if locks else None
            if held:
                for acquired in index.callee_locks(module, child, aliases):
                    if acquired != held:
                        edges.setdefault(
                            (held, acquired), (pf.rel, child.lineno)
                        )
            continue
        detail = (
            f"{why} while holding {locks[-1][1]}"
            if callee is None
            else f"call to {callee}() (which does {why}) while holding "
            f"{locks[-1][1]}"
        )
        yield Finding(
            path=pf.rel,
            line=child.lineno,
            rule="lock-blocking",
            message=detail,
            hint=HINT_BLOCKING,
        )


def _find_cycles(
    edges: Dict[Tuple[str, str], Tuple[str, int]]
) -> List[Tuple[str, str]]:
    graph: Dict[str, Set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)

    cyclic: List[Tuple[str, str]] = []

    def reachable(start: str, target: str) -> bool:
        seen = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur == target:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(graph.get(cur, ()))
        return False

    for a, b in edges:
        if reachable(b, a):
            cyclic.append((a, b))
    return cyclic


def check(project: Project) -> Iterator[Finding]:
    index = _FunctionIndex(project)
    edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for module, pf in project.modules():
        if pf.tree is None:
            continue
        aliases = _module_aliases(pf.tree)
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.With):
                continue
            locks = [
                (name, ast.unparse(item.context_expr))
                for item in node.items
                for name in [_lock_name(item.context_expr)]
                if name
            ]
            if not locks:
                continue
            for i in range(len(locks) - 1):
                edges.setdefault(
                    (locks[i][0], locks[i + 1][0]), (pf.rel, node.lineno)
                )
            yield from _check_with_block(
                pf, module, node, locks, aliases, index, edges
            )
    for (a, b) in _find_cycles(edges):
        rel, lineno = edges[(a, b)]
        yield Finding(
            path=rel,
            line=lineno,
            rule="lock-order",
            message=(
                f"lock acquisition cycle: {a} is taken before {b} here, "
                f"but {b} is (transitively) taken before {a} elsewhere"
            ),
            hint=HINT_ORDER,
        )
