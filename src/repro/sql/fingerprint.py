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
  ``x NOT BETWEEN lo AND hi`` to ``x < lo OR x > hi`` **when both
  bounds are non-NULL literals**, so the two spellings of a range share
  one decision/result cache line. The guard is load-bearing for
  three-valued logic: the engine evaluates BETWEEN as UNKNOWN whenever
  *any* operand is NULL, while the decomposed form can collapse to
  FALSE (``UNKNOWN AND FALSE``) or TRUE (``UNKNOWN OR TRUE``) when only
  a bound is NULL — so with a NULL (or non-literal, hence possibly
  NULL-valued) bound the spellings are not truth-value equivalent in
  nested positions and must keep distinct fingerprints. With non-NULL
  literal bounds the rewrite is exact in every position: a NULL operand
  makes both forms UNKNOWN, and non-NULL operands are classical.

Deeper equivalences (predicate implication, join reordering under
dependencies) are out of scope — a missed equivalence costs a cache
miss, never a wrong answer.
"""

from __future__ import annotations

import hashlib
from typing import Union

from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.printer import expression_to_sql, to_sql


def _rewritable_bounds(low: ast.Expression, high: ast.Expression) -> bool:
    """BETWEEN bounds safe for the conjunct rewrite (see module doc)."""
    return (
        isinstance(low, ast.Literal)
        and low.value is not None
        and isinstance(high, ast.Literal)
        and high.value is not None
    )


def canonical_expression(expr: ast.Expression) -> ast.Expression:
    """Reorder commutative parts of ``expr`` into a canonical form."""
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            # canonicalising a conjunct can itself introduce an AND (the
            # BETWEEN rewrite below), so re-flatten before sorting
            flattened: list[ast.Expression] = []
            for conjunct in ast.conjuncts(expr):
                flattened.extend(ast.conjuncts(canonical_expression(conjunct)))
            rebuilt = ast.conjoin(sorted(flattened, key=expression_to_sql))
            assert rebuilt is not None  # an AND has two sides
            return rebuilt
        return ast.BinaryOp(
            expr.op,
            canonical_expression(expr.left),
            canonical_expression(expr.right),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, canonical_expression(expr.operand))
    if isinstance(expr, ast.InList):
        items = tuple(canonical_expression(i) for i in expr.items)
        literals = [i for i in items if isinstance(i, ast.Literal)]
        if len(literals) == len(items):
            # sort, then dedupe: membership is order- and
            # multiplicity-independent, so ``x IN (1, 1, 2)`` must share a
            # cache line with ``x IN (1, 2)``. The dedup key includes the
            # type so e.g. 1 and '1' (or 1 and True) stay distinct.
            deduped: list[ast.Literal] = []
            seen: set[tuple[str, str]] = set()
            for item in sorted(
                literals, key=lambda i: (str(type(i.value)), repr(i.value))
            ):
                marker = (str(type(item.value)), repr(item.value))
                if marker not in seen:
                    seen.add(marker)
                    deduped.append(item)
            items = tuple(deduped)
        return ast.InList(canonical_expression(expr.operand), items, expr.negated)
    if isinstance(expr, ast.Between):
        operand = canonical_expression(expr.operand)
        low = canonical_expression(expr.low)
        high = canonical_expression(expr.high)
        if not _rewritable_bounds(low, high):
            return ast.Between(operand, low, high, expr.negated)
        if expr.negated:
            return ast.BinaryOp(
                "OR",
                ast.BinaryOp("<", operand, low),
                ast.BinaryOp(">", operand, high),
            )
        # route through the AND branch so the two conjuncts land in the
        # same sorted position as the hand-written spelling
        return canonical_expression(
            ast.BinaryOp(
                "AND",
                ast.BinaryOp(">=", operand, low),
                ast.BinaryOp("<=", operand, high),
            )
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            canonical_expression(expr.operand),
            canonical_expression(expr.pattern),
            expr.negated,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(canonical_expression(expr.operand), expr.negated)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(canonical_expression(a) for a in expr.args),
            expr.distinct,
        )
    return expr  # Literal, ColumnRef, Star


def canonical_statement(statement: ast.Statement) -> ast.Statement:
    """Canonicalise WHERE/HAVING conjunct order (and nested set-op sides)."""
    if isinstance(statement, ast.SetOperation):
        return ast.SetOperation(
            statement.op,
            canonical_statement(statement.left),
            canonical_statement(statement.right),
            statement.all,
        )
    where = (
        canonical_expression(statement.where)
        if statement.where is not None
        else None
    )
    having = (
        canonical_expression(statement.having)
        if statement.having is not None
        else None
    )
    if where is statement.where and having is statement.having:
        return statement
    return ast.SelectStatement(
        items=statement.items,
        from_items=statement.from_items,
        where=where,
        group_by=statement.group_by,
        having=having,
        order_by=statement.order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


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
