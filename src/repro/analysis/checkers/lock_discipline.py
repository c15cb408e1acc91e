"""lock-discipline: shard and schema holds only via ``serving/shard.py``.

The bug class: a request that takes its shard holds one by one can
deadlock against another unless every path agrees on an order, and one
interrupted half-way leaks the holds it already has; holding a leaf
mutex while dispatching work (pool, engine execution) inverts the lock
hierarchy. ``serving/shard.py``'s ``grant`` / ``release`` take and give
back every hold a request or a batch needs at once, holding nothing
while they wait (``ShardLock.read/write`` are the one-lock grant);
everyone else must go through them.

Three rules:

1. A raw ``.acquire_read()`` / ``.acquire_write()`` /
   ``.release_read()`` / ``.release_write()`` outside
   ``serving/shard.py`` is flagged, whatever the lock.
2. Inside a ``with`` on a leaf mutex (``_mutex``, ``_lock``, ...), no
   further lock acquisition and no dispatch/execute call may appear.
3. A serving-path function that takes a write lock must not also
   dispatch engine execution while structuring that critical section.

Rules 2 and 3 cover the serving path: ``serving/`` and
``beas/system.py``, the engine that holds the serving locks.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers._util import (
    SCOPE_NODES,
    on_serving_path,
    terminal_name,
    walk_scope,
)
from repro.analysis.core import Checker, Finding, ModuleContext, register

#: leaf (level-max) mutex names — nothing may be acquired under these
LEAF_LOCKS = frozenset({"_mutex", "_admin_lock", "_dep_lock", "_lock", "mutex"})

#: calls that hand work to the pool or the engine
DISPATCH_CALLS = frozenset(
    {
        "execute",
        "evaluate",
        "run_plan",
        "run_chunks",
        "dispatch",
        "serve",
    }
)

_ACQUIRE_ATTRS = frozenset({"acquire_read", "acquire_write"})
_RAW_ATTRS = _ACQUIRE_ATTRS | {"release_read", "release_write"}


def _is_leaf_lock_context(expr: ast.AST) -> bool:
    """Does this ``with`` item hold a leaf mutex?"""
    if isinstance(expr, ast.Call):
        name = terminal_name(expr.func)
        if name in {"read", "write"} and isinstance(expr.func, ast.Attribute):
            receiver = terminal_name(expr.func.value) or ""
            return receiver in LEAF_LOCKS
        return False
    return (terminal_name(expr) or "") in LEAF_LOCKS


def _is_lock_acquisition(node: ast.Call) -> bool:
    name = terminal_name(node.func)
    if name in _ACQUIRE_ATTRS or name == "grant":
        return True
    if name in {"read", "write"} and isinstance(node.func, ast.Attribute):
        receiver = (terminal_name(node.func.value) or "").lower()
        return receiver in LEAF_LOCKS or "lock" in receiver
    return False


@register
class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = (
        "shard and schema holds only through serving/shard.py's "
        "grant/release; no acquisition or dispatch while a leaf mutex "
        "is held"
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        serving = on_serving_path(module.relpath)
        if module.relpath != "serving/shard.py":
            findings.extend(self._raw_acquires(module))
            if serving:
                findings.extend(self._leaf_regions(module))
        if serving:
            findings.extend(self._write_then_dispatch(module))
        return findings

    # -- rule 1 -------------------------------------------------------- #
    def _raw_acquires(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _RAW_ATTRS:
                continue
            receiver = terminal_name(node.func.value) or ""
            findings.append(
                module.finding(
                    self.rule,
                    node,
                    f"raw `{node.func.attr}` on `{receiver or '<expr>'}` "
                    f"outside serving/shard.py — take holds through its "
                    f"grant / release (or ShardLock.read/write)",
                )
            )
        return findings

    # -- rule 2 -------------------------------------------------------- #
    def _leaf_regions(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(_is_leaf_lock_context(i.context_expr) for i in node.items):
                continue
            for stmt in node.body:
                for inner in self._walk_no_scopes(stmt):
                    if not isinstance(inner, ast.Call):
                        continue
                    name = terminal_name(inner.func) or ""
                    if _is_lock_acquisition(inner):
                        findings.append(
                            module.finding(
                                self.rule,
                                inner,
                                f"lock acquisition `{name}` while a leaf "
                                f"mutex is held (lock-order inversion)",
                            )
                        )
                    elif name in DISPATCH_CALLS:
                        findings.append(
                            module.finding(
                                self.rule,
                                inner,
                                f"dispatch call `{name}` while a leaf mutex "
                                f"is held — release before handing work to "
                                f"the pool/engine",
                            )
                        )
        return findings

    # -- rule 3 -------------------------------------------------------- #
    def _write_then_dispatch(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            write_taken = False
            dispatches: list[ast.Call] = []
            for node in walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = terminal_name(node.func) or ""
                if name == "acquire_write" or (
                    name == "grant" and len(node.args) + len(node.keywords) > 1
                ):
                    write_taken = True
                elif name == "write" and isinstance(node.func, ast.Attribute):
                    receiver = (terminal_name(node.func.value) or "").lower()
                    if "lock" in receiver or receiver in LEAF_LOCKS:
                        write_taken = True
                elif name in DISPATCH_CALLS:
                    dispatches.append(node)
            if write_taken:
                for call in dispatches:
                    findings.append(
                        module.finding(
                            self.rule,
                            call,
                            f"function `{scope.name}` takes a write lock and "
                            f"dispatches `{terminal_name(call.func)}` — keep "
                            f"engine execution out of write critical sections",
                        )
                    )
        return findings

    @staticmethod
    def _walk_no_scopes(node: ast.AST):
        yield node
        if isinstance(node, SCOPE_NODES):
            return
        yield from walk_scope(node)
