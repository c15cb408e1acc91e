"""Compile resolved AST expressions into Python callables.

A *layout* maps column labels to positions in a row tuple. Labels are
either :class:`~repro.sql.normalize.Attribute` (base/join rows) or plain
strings (post-projection output columns). Compilation happens once per
plan; evaluation is then a closure call per row.

NULL follows SQL three-valued logic: comparisons and arithmetic involving
NULL yield ``None``; ``AND``/``OR`` use Kleene logic; filters keep a row
only when the predicate is exactly ``True``.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Mapping, Optional

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.normalize import Attribute

Row = tuple
Evaluator = Callable[[Row], Any]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (``%``, ``_``) to an anchored regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


def _label_of(ref: ast.ColumnRef) -> object:
    return Attribute(ref.table, ref.name) if ref.table else ref.name


def _column_position(
    expr: ast.Expression, layout: Mapping[object, int]
) -> Optional[int]:
    """The position a plain column reference reads under ``layout``, or
    None for any other expression."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    return layout.get(_label_of(expr))


def compile_expression(
    expr: ast.Expression,
    layout: Mapping[object, int],
    aggregate_values: Optional[Mapping[ast.FunctionCall, int]] = None,
) -> Evaluator:
    """Compile ``expr`` to ``row -> value`` under ``layout``.

    ``aggregate_values`` maps aggregate calls to row positions; it is used
    after an Aggregate operator has materialised per-group aggregate values
    into the row (so ``SUM(x) + 1`` works).
    """
    if aggregate_values and isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
        index = aggregate_values.get(expr)
        if index is None:
            raise ExecutionError(f"aggregate {expr!r} was not computed")
        return lambda row: row[index]

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ast.ColumnRef):
        label = _label_of(expr)
        try:
            index = layout[label]
        except KeyError:
            raise ExecutionError(f"column {label} not present in row layout") from None
        return lambda row: row[index]

    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            left = compile_expression(expr.left, layout, aggregate_values)
            right = compile_expression(expr.right, layout, aggregate_values)
            if expr.op == "AND":

                def eval_and(row: Row) -> Any:
                    lhs = left(row)
                    if lhs is False:
                        return False
                    rhs = right(row)
                    if rhs is False:
                        return False
                    if lhs is None or rhs is None:
                        return None
                    return True

                return eval_and

            def eval_or(row: Row) -> Any:
                lhs = left(row)
                if lhs is True:
                    return True
                rhs = right(row)
                if rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return eval_or

        left = compile_expression(expr.left, layout, aggregate_values)
        right = compile_expression(expr.right, layout, aggregate_values)

        if expr.op in _COMPARATORS:
            compare = _COMPARATORS[expr.op]

            def eval_compare(row: Row) -> Any:
                lhs = left(row)
                rhs = right(row)
                if lhs is None or rhs is None:
                    return None
                try:
                    return compare(lhs, rhs)
                except TypeError:
                    raise ExecutionError(
                        f"cannot compare {lhs!r} and {rhs!r} with {expr.op}"
                    ) from None

            return eval_compare

        if expr.op == "||":

            def eval_concat(row: Row) -> Any:
                lhs = left(row)
                rhs = right(row)
                if lhs is None or rhs is None:
                    return None
                return str(lhs) + str(rhs)

            return eval_concat

        arith = {
            "+": operator.add,
            "-": operator.sub,
            "*": operator.mul,
        }.get(expr.op)
        if arith is not None:

            def eval_arith(row: Row) -> Any:
                lhs = left(row)
                rhs = right(row)
                if lhs is None or rhs is None:
                    return None
                try:
                    return arith(lhs, rhs)
                except TypeError:
                    raise ExecutionError(
                        f"bad operands for {expr.op}: {lhs!r}, {rhs!r}"
                    ) from None

            return eval_arith

        if expr.op in ("/", "%"):
            is_div = expr.op == "/"

            def eval_div(row: Row) -> Any:
                lhs = left(row)
                rhs = right(row)
                if lhs is None or rhs is None:
                    return None
                if rhs == 0:
                    raise ExecutionError("division by zero")
                if is_div:
                    # SQL semantics: integer / integer truncates
                    if isinstance(lhs, int) and isinstance(rhs, int):
                        return int(lhs / rhs)
                    return lhs / rhs
                return lhs % rhs

            return eval_div

        raise ExecutionError(f"unsupported operator {expr.op!r}")

    if isinstance(expr, ast.UnaryOp):
        inner = compile_expression(expr.operand, layout, aggregate_values)
        if expr.op == "NOT":

            def eval_not(row: Row) -> Any:
                value = inner(row)
                if value is None:
                    return None
                return not value

            return eval_not

        def eval_neg(row: Row) -> Any:
            value = inner(row)
            return None if value is None else -value

        return eval_neg

    if isinstance(expr, ast.InList):
        operand = compile_expression(expr.operand, layout, aggregate_values)
        items = [compile_expression(i, layout, aggregate_values) for i in expr.items]
        constants = all(isinstance(i, ast.Literal) for i in expr.items)
        if constants:
            values = {i.value for i in expr.items if i.value is not None}  # type: ignore[union-attr]
            has_null = any(i.value is None for i in expr.items)  # type: ignore[union-attr]

            def eval_in_const(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                if value in values:
                    return not expr.negated
                if has_null:
                    return None
                return expr.negated

            return eval_in_const

        def eval_in(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not expr.negated
            if saw_null:
                return None
            return expr.negated

        return eval_in

    if isinstance(expr, ast.Between):
        operand = compile_expression(expr.operand, layout, aggregate_values)
        low = compile_expression(expr.low, layout, aggregate_values)
        high = compile_expression(expr.high, layout, aggregate_values)

        def eval_between(row: Row) -> Any:
            value = operand(row)
            lo = low(row)
            hi = high(row)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if expr.negated else result

        return eval_between

    if isinstance(expr, ast.Like):
        operand = compile_expression(expr.operand, layout, aggregate_values)
        if isinstance(expr.pattern, ast.Literal) and isinstance(
            expr.pattern.value, str
        ):
            regex = like_to_regex(expr.pattern.value)

            def eval_like_const(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                result = bool(regex.match(str(value)))
                return (not result) if expr.negated else result

            return eval_like_const

        pattern = compile_expression(expr.pattern, layout, aggregate_values)

        def eval_like(row: Row) -> Any:
            value = operand(row)
            pat = pattern(row)
            if value is None or pat is None:
                return None
            result = bool(like_to_regex(str(pat)).match(str(value)))
            return (not result) if expr.negated else result

        return eval_like

    if isinstance(expr, ast.IsNull):
        operand = compile_expression(expr.operand, layout, aggregate_values)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expr, ast.FunctionCall):
        raise ExecutionError(
            f"aggregate {expr.name} outside an aggregation context"
        )

    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' cannot be evaluated as a scalar")

    raise ExecutionError(f"cannot compile expression {expr!r}")  # pragma: no cover


def compile_predicate(
    expr: ast.Expression,
    layout: Mapping[object, int],
    aggregate_values: Optional[Mapping[ast.FunctionCall, int]] = None,
) -> Callable[[Row], bool]:
    """Like :func:`compile_expression` but collapses UNKNOWN to False."""
    evaluator = compile_expression(expr, layout, aggregate_values)
    return lambda row: evaluator(row) is True
