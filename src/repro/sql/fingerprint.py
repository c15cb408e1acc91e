"""Stable query fingerprinting for the serving layer.

A fingerprint identifies a query up to *presentation*: whitespace,
keyword case, and the order of commutative ``AND`` conjuncts and ``IN``
list members do not change it. It is computed by printing a canonical
form of the AST (``repro.sql.printer``) and hashing the text, so two
spellings of the same query share one cache line in the serving layer's
decision and result caches.

Canonicalisation is deliberately conservative — it only applies rewrites
that are semantics-preserving under SQL's three-valued logic:

* flatten a top-level ``AND`` chain and sort the conjuncts by printed
  text (``AND`` is commutative and associative; no side effects exist);
* sort and deduplicate the members of an ``IN`` / ``NOT IN`` list whose
  items are all literals (membership is order- and
  multiplicity-independent);
* rewrite ``x BETWEEN lo AND hi`` to ``x >= lo AND x <= hi`` and
  ``x NOT BETWEEN lo AND hi`` to ``x < lo OR x > hi`` when both bounds
  are non-NULL literals (:func:`repro.sql.ast.between_comparison`, which
  the normaliser applies too and which says why the guard is needed
  under three-valued logic), so the two spellings of a range share one
  decision/result cache line.

The walk itself is :func:`repro.sql.ast.rebuild`; only the rewrites
above are written here.

Deeper equivalences (predicate implication, join reordering under
dependencies) are out of scope — a missed equivalence costs a cache
miss, never a wrong answer.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Union

from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.printer import expression_to_sql, to_sql


def canonical_expression(expr: ast.Expression) -> ast.Expression:
    """Reorder commutative parts of ``expr`` into a canonical form."""
    expr = ast.between_comparison(expr)
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        # canonicalising a conjunct can itself introduce an AND (the
        # BETWEEN rewrite), so re-flatten before sorting
        flattened = [
            part
            for conjunct in ast.conjuncts(expr)
            for part in ast.conjuncts(canonical_expression(conjunct))
        ]
        rebuilt = ast.conjoin(sorted(flattened, key=expression_to_sql))
        assert rebuilt is not None  # an AND has two sides
        return rebuilt
    expr = ast.rebuild(expr, canonical_expression)
    if isinstance(expr, ast.InList):
        literals = [i for i in expr.items if isinstance(i, ast.Literal)]
        if len(literals) == len(expr.items):
            # sort, then dedupe: membership is order- and
            # multiplicity-independent, so ``x IN (1, 1, 2)`` must share a
            # cache line with ``x IN (1, 2)``. The dedup key includes the
            # type so e.g. 1 and '1' (or 1 and True) stay distinct.
            deduped: dict[tuple[str, str], ast.Literal] = {}
            for item in literals:
                deduped.setdefault((str(type(item.value)), repr(item.value)), item)
            items = tuple(item for _, item in sorted(deduped.items()))
            return replace(expr, items=items)
    return expr


def canonical_statement(statement: ast.Statement) -> ast.Statement:
    """Canonicalise WHERE/HAVING conjunct order (and nested set-op sides)."""
    if isinstance(statement, ast.SetOperation):
        return replace(
            statement,
            left=canonical_statement(statement.left),
            right=canonical_statement(statement.right),
        )
    where, having = (
        canonical_expression(part) if part is not None else None
        for part in (statement.where, statement.having)
    )
    if where is statement.where and having is statement.having:
        return statement
    return replace(statement, where=where, having=having)


def canonical_sql(query: Union[str, ast.Statement]) -> str:
    """The canonical printed form used as the fingerprint's preimage."""
    statement = parse(query) if isinstance(query, str) else query
    return to_sql(canonical_statement(statement))


def statement_fingerprint(query: Union[str, ast.Statement]) -> str:
    """Hex digest identifying the query up to presentation order."""
    preimage = canonical_sql(query)
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


def statement_tables(statement: ast.Statement) -> frozenset[str]:
    """Base tables a statement reads (dependency set for result caching)."""
    tables: set[str] = set()
    _add_tables(statement, tables)
    return frozenset(tables)


def _add_tables(stmt: ast.Statement, tables: set[str]) -> None:
    if isinstance(stmt, ast.SetOperation):
        _add_tables(stmt.left, tables)
        _add_tables(stmt.right, tables)
        return
    for item in stmt.from_items:
        _add_from_tables(item, tables)


def _add_from_tables(item: ast.FromItem, tables: set[str]) -> None:
    if isinstance(item, ast.TableRef):
        tables.add(item.name)
    else:
        _add_from_tables(item.left, tables)
        _add_from_tables(item.right, tables)
