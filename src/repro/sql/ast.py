"""Abstract syntax tree for the SQL subset.

All nodes are frozen dataclasses: hashable, comparable by value, safe to
share between plans. Expression nodes and statement nodes live in one
module because the grammar is small.

The traversal lives here too. :data:`CHILD_FIELDS` is the one list of
which fields of each expression node hold sub-expressions; every walk
or rewrite of an expression goes through :func:`children` /
:func:`rebuild` and keeps only its own special case (the normaliser's
column resolution, the fingerprint's reordering, the optimizer's column
renaming). So is the one rewrite more than one layer needs:
:func:`between_comparison`, BETWEEN as two comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, TypeGuard, Union

# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Expression:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: int, float, str, bool, or None (NULL)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly-qualified column reference (``t.c`` or ``c``)."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``t.*`` (select list and COUNT(*))."""

    table: Optional[str] = None


#: Comparison operators normalised by the parser (``!=`` becomes ``<>``).
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC = ("+", "-", "*", "/", "%", "||")
BOOLEAN_OPS = ("AND", "OR")


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator: arithmetic, comparison, or AND/OR."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator: ``NOT`` or arithmetic negation ``-``."""

    op: str  # 'NOT' | '-'
    operand: Expression


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%``/``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class FunctionCall(Expression):
    """An aggregate call; ``COUNT(*)`` has a single :class:`Star` argument."""

    name: str  # upper-case
    args: tuple[Expression, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATES


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry with an optional output alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """Name under which columns of this occurrence are addressed."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """An explicit join between two FROM items."""

    kind: str  # 'INNER' | 'LEFT' | 'CROSS'
    left: "FromItem"
    right: "FromItem"
    condition: Optional[Expression] = None


FromItem = Union[TableRef, Join]


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    """A single SELECT block."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class SetOperation:
    """``left UNION|INTERSECT|EXCEPT [ALL] right``."""

    op: str  # 'UNION' | 'INTERSECT' | 'EXCEPT'
    left: "Statement"
    right: "Statement"
    all: bool = False


Statement = Union[SelectStatement, SetOperation]


# --------------------------------------------------------------------------- #
# DDL / DML statements (CREATE TABLE, INSERT INTO ... VALUES)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ColumnDefinition:
    """One column of a CREATE TABLE: name + type name (validated later)."""

    name: str
    type_name: str  # 'int' | 'float' | 'string' | 'bool' | 'date' (aliases ok)


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE name (col type, ..., PRIMARY KEY (a, b))``."""

    name: str
    columns: tuple[ColumnDefinition, ...]
    primary_key: tuple[str, ...] = ()


@dataclass(frozen=True)
class InsertValues:
    """``INSERT INTO name [(cols)] VALUES (...), (...)``.

    Values are literals only (the fragment the loader needs).
    """

    table: str
    columns: tuple[str, ...]  # empty = positional
    rows: tuple[tuple[Expression, ...], ...]


ScriptStatement = Union[Statement, CreateTable, InsertValues]


# --------------------------------------------------------------------------- #
# traversal helpers
# --------------------------------------------------------------------------- #


#: Node type -> the fields that hold its sub-expressions (a tuple-valued
#: field holds a sequence of them). A leaf lists none; a type missing
#: from the table is not an expression node the traversal knows.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Literal: (),
    ColumnRef: (),
    Star: (),
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    InList: ("operand", "items"),
    Between: ("operand", "low", "high"),
    Like: ("operand", "pattern"),
    IsNull: ("operand",),
    FunctionCall: ("args",),
}


def children(expr: Expression) -> list[Expression]:
    """The direct sub-expressions of ``expr``, in syntactic order."""
    result: list[Expression] = []
    for name in CHILD_FIELDS.get(type(expr), ()):
        value = getattr(expr, name)
        if isinstance(value, tuple):
            result.extend(value)
        else:
            result.append(value)
    return result


def rebuild(expr: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """A copy of ``expr`` with ``fn`` applied to each direct
    sub-expression; a leaf comes back as it is."""
    fields = CHILD_FIELDS.get(type(expr))
    if not fields:
        return expr
    changes: dict[str, Any] = {}
    for name in fields:
        value = getattr(expr, name)
        changes[name] = tuple(map(fn, value)) if isinstance(value, tuple) else fn(value)
    return replace(expr, **changes)


def walk_expression(expr: Expression):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    for child in children(expr):
        yield from walk_expression(child)


def column_refs(expr: Expression) -> list[ColumnRef]:
    """All column references inside ``expr``, in syntactic order."""
    return [node for node in walk_expression(expr) if isinstance(node, ColumnRef)]


def contains_aggregate(expr: Expression) -> bool:
    return any(
        isinstance(node, FunctionCall) and node.is_aggregate
        for node in walk_expression(expr)
    )


def conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Split a predicate on top-level AND into a flat conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(parts: list[Expression]) -> Optional[Expression]:
    """Rebuild a conjunction from a list of conjuncts (None when empty)."""
    result: Optional[Expression] = None
    for part in parts:
        result = part if result is None else BinaryOp("AND", result, part)
    return result


def is_constant(expr: Expression) -> TypeGuard[Literal]:
    """Whether ``expr`` is a non-NULL literal."""
    return isinstance(expr, Literal) and expr.value is not None


def between_comparison(expr: Expression) -> Expression:
    """``x BETWEEN lo AND hi`` as ``x >= lo AND x <= hi`` and ``x NOT
    BETWEEN lo AND hi`` as ``x < lo OR x > hi``, when both bounds are
    non-NULL literals; ``expr`` itself otherwise.

    The fingerprint and the normaliser both rewrite through this, so the
    two spellings of a range share a cache line and a rebind template.
    The guard is load-bearing for three-valued logic: BETWEEN is UNKNOWN
    whenever *any* operand is NULL, while the comparison form can
    collapse to FALSE (``UNKNOWN AND FALSE``) or TRUE (``UNKNOWN OR
    TRUE``) when only a bound is NULL. With a NULL (or non-literal, hence
    possibly NULL-valued) bound the spellings differ in nested positions;
    with non-NULL literal bounds the rewrite is exact in every position:
    a NULL operand makes both forms UNKNOWN, and non-NULL operands are
    classical.
    """
    if not (
        isinstance(expr, Between) and is_constant(expr.low) and is_constant(expr.high)
    ):
        return expr
    operand, low, high = expr.operand, expr.low, expr.high
    if expr.negated:
        return BinaryOp("OR", BinaryOp("<", operand, low), BinaryOp(">", operand, high))
    return BinaryOp("AND", BinaryOp(">=", operand, low), BinaryOp("<=", operand, high))
