"""null-guard: ordered/equality comparisons on possibly-NULL values.

The bug class (PRs 3, 6, 7): SQL rows carry NULLs, and Python happily
evaluates ``row[index] >= low`` as a plain comparison — either crashing
on ``None >= int`` or, worse, treating NULL like a value and silently
breaking three-valued logic. Every prior NULL soundness bug in the
predicate-evaluation modules was exactly this shape, e.g. PR 6's
interval comparator that had to become
``(v := row[index]) is not None and v >= low``.

The rule: inside the predicate-evaluation modules, a comparand that can
be NULL — a subscript load like ``row[i]``, or a name assigned from a
subscript / attribute / non-builtin call / ``None`` — may only appear
under ``< <= > >= == !=`` if the same expression is tested with
``is None`` / ``is not None`` somewhere in the enclosing function scope
chain. Comparing *to* a ``None`` literal with ``==``/``!=`` is always
flagged (use ``is``).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.checkers._util import enclosing_scopes, expr_key, walk_scope
from repro.analysis.core import Checker, Finding, ModuleContext, register

#: the modules whose comparisons operate on row/constant values
SCOPED_MODULES = frozenset(
    {
        "engine/expressions.py",
        "engine/columnar.py",
        "catalog/statistics.py",
    }
)

#: calls whose results are never NULL rows/constants
SAFE_BUILTINS = frozenset(
    {
        "len",
        "int",
        "float",
        "str",
        "bool",
        "abs",
        "hash",
        "min",
        "max",
        "sum",
        "sorted",
        "list",
        "tuple",
        "set",
        "dict",
        "frozenset",
        "range",
        "enumerate",
        "zip",
        "repr",
        "round",
        "id",
        "isinstance",
        "getattr",
        "type",
    }
)

_ORDERED_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _is_nullable_value(node: ast.AST) -> bool:
    """Can this *assigned value* be NULL? (row loads, attrs, opaque calls)"""
    if isinstance(node, ast.Subscript):
        return True
    if isinstance(node, ast.Attribute):
        return True
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id not in SAFE_BUILTINS
        if isinstance(func, ast.Attribute):
            # dict.get with an explicit default can't return None-by-miss
            return func.attr == "get" and len(node.args) < 2
        return True
    if isinstance(node, ast.IfExp):
        return _is_nullable_value(node.body) or _is_nullable_value(node.orelse)
    if isinstance(node, ast.NamedExpr):
        return _is_nullable_value(node.value)
    return False


class _ScopeInfo:
    """Per-scope facts: None-guard keys and nullable-assigned names."""

    def __init__(self, scope: ast.AST):
        self.guards: set[str] = set()
        self.nullable_names: set[str] = set()
        for node in walk_scope(scope):
            if isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                    self._collect_guard(node)
            if isinstance(node, ast.Assign):
                if _is_nullable_value(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.nullable_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and _is_nullable_value(node.value):
                    if isinstance(node.target, ast.Name):
                        self.nullable_names.add(node.target.id)
            elif isinstance(node, ast.NamedExpr):
                if _is_nullable_value(node.value):
                    if isinstance(node.target, ast.Name):
                        self.nullable_names.add(node.target.id)

    def _collect_guard(self, node: ast.Compare) -> None:
        left, right = node.left, node.comparators[0]
        for tested, other in ((left, right), (right, left)):
            if isinstance(other, ast.Constant) and other.value is None:
                if isinstance(tested, ast.NamedExpr):
                    self.guards.add(expr_key(tested.target))
                    self.guards.add(expr_key(tested.value))
                else:
                    self.guards.add(expr_key(tested))


@register
class NullGuardChecker(Checker):
    rule = "null-guard"
    description = (
        "comparisons on row/constant values in predicate-evaluation "
        "modules must be dominated by an `is None` guard (3VL soundness)"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath in SCOPED_MODULES

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        scope_info: dict[ast.AST, _ScopeInfo] = {}

        def info(scope: ast.AST) -> _ScopeInfo:
            if scope not in scope_info:
                scope_info[scope] = _ScopeInfo(scope)
            return scope_info[scope]

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not all(isinstance(op, _ORDERED_OPS) for op in node.ops):
                continue
            scopes = enclosing_scopes(node, module.parents, module.tree)
            comparands = [node.left, *node.comparators]
            for comparand in comparands:
                if isinstance(comparand, ast.Constant) and comparand.value is None:
                    findings.append(
                        module.finding(
                            self.rule,
                            node,
                            "equality with a None literal — use `is None` / "
                            "`is not None` (3VL: `== NULL` is never true)",
                        )
                    )
                    continue
                keys = self._nullable_keys(comparand, scopes, info)
                if keys is None:
                    continue
                guarded = any(
                    key in info(scope).guards for key in keys for scope in scopes
                )
                if not guarded:
                    findings.append(
                        module.finding(
                            self.rule,
                            comparand,
                            f"comparison on possibly-NULL value "
                            f"`{expr_key(comparand)}` without an `is None` "
                            f"guard in the enclosing scope",
                        )
                    )
        return findings

    def _nullable_keys(
        self,
        comparand: ast.AST,
        scopes: list[ast.AST],
        info,
    ) -> Optional[list[str]]:
        """Keys to look up in the guard sets, or None if not nullable."""
        if isinstance(comparand, ast.Subscript):
            return [expr_key(comparand)]
        if isinstance(comparand, ast.Name):
            if any(comparand.id in info(scope).nullable_names for scope in scopes):
                return [comparand.id]
            return None
        if isinstance(comparand, ast.NamedExpr):
            if _is_nullable_value(comparand.value):
                return [expr_key(comparand.target), expr_key(comparand.value)]
            return None
        return None
