"""Shared AST helpers for the house checkers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

#: nodes that open a new variable scope
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def on_serving_path(relpath: str) -> bool:
    """``serving/`` and the engine module, which holds the serving locks
    and caches."""
    return relpath.startswith("serving/") or relpath == "beas/system.py"


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a receiver chain: ``self.a.b`` -> ``"b"``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value)
    return None


def expr_key(node: ast.AST) -> str:
    """A canonical text key for an expression (``row[index]``, ``self.low``)."""
    try:
        return ast.unparse(node)
    except Exception:  # noqa: BLE001 - unparse failure degrades to node dump
        return ast.dump(node)


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree without descending into nested scopes.

    ``ClassDef`` is a boundary too: class-body names are not visible to
    the methods inside, so facts collected there must not leak out.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (*SCOPE_NODES, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def enclosing_scopes(
    node: ast.AST, parents: dict[ast.AST, ast.AST], tree: ast.AST
) -> list[ast.AST]:
    """Scope chain from the innermost function/lambda out to the module."""
    chain: list[ast.AST] = []
    current = parents.get(node)
    while current is not None:
        if isinstance(current, SCOPE_NODES):
            chain.append(current)
        current = parents.get(current)
    chain.append(tree)
    return chain
