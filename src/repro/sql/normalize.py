"""Normalisation of a SELECT block into a canonical SPJA form.

The :class:`ConjunctiveQuery` produced here is the common currency of the
conventional planner (S4) and the bounded-evaluation core (S6). It names
each relation occurrence by its *binding* (alias, or table name when no
alias), resolves every column reference to a (binding, column) pair, and
classifies the WHERE conjuncts into:

* ``selections`` — ``attr = constant`` and ``attr IN (constants)`` (the
  enumerable bindings that seed bounded plans),
* ``equalities`` — ``attr = attr`` equi-join atoms,
* ``filters`` — everything else (ranges, LIKE, OR-trees, arithmetic, ...).

What a selection is (:func:`selection_literals`) and the order of its
values (:func:`canonical_selection`) are decided here once: a prepared
template's parameter slots are its selections (``serving.params``), and
an override's values are put in this order too. A BETWEEN conjunct with
literal bounds is filed as its two comparisons, the rewrite the
fingerprint makes (:func:`repro.sql.ast.between_comparison`).

Aggregation (GROUP BY / aggregate select items / HAVING) and the ORDER
BY / LIMIT decoration are carried along unchanged but resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.catalog.schema import DatabaseSchema
from repro.errors import (
    AmbiguousColumnError,
    NormalizationError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.sql import ast


@dataclass(frozen=True, order=True)
class Attribute:
    """A column of one relation occurrence, e.g. ``c.pnum`` in ``call c``."""

    binding: str
    column: str

    def __str__(self) -> str:
        return f"{self.binding}.{self.column}"


@dataclass(frozen=True)
class ResolvedPredicate:
    """A residual filter conjunct plus the attributes it touches."""

    expression: ast.Expression
    attributes: frozenset[Attribute]


@dataclass(frozen=True)
class OutputItem:
    """One resolved select-list entry."""

    expression: ast.Expression
    name: str  # output column name


@dataclass
class ConjunctiveQuery:
    """Canonical SPJA form of one SELECT block."""

    occurrences: dict[str, str]  # binding -> table name (insertion ordered)
    output: list[OutputItem]
    selections: dict[Attribute, tuple]  # attr -> sorted tuple of constants
    equalities: list[tuple[Attribute, Attribute]]
    filters: list[ResolvedPredicate]
    group_by: list[Attribute] = field(default_factory=list)
    aggregates: list[OutputItem] = field(default_factory=list)
    having: Optional[ast.Expression] = None
    order_by: list[ast.OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    # ------------------------------------------------------------------ #
    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates)

    @property
    def output_names(self) -> list[str]:
        return [item.name for item in self.output]

    def attributes_of(self, binding: str) -> set[str]:
        """Columns the query needs from one occurrence (output + predicates)."""
        needed: set[str] = set()
        for item in self.output:
            for ref in ast.column_refs(item.expression):
                if ref.table == binding:
                    needed.add(ref.name)
        for attr in self.selections:
            if attr.binding == binding:
                needed.add(attr.column)
        for left, right in self.equalities:
            if left.binding == binding:
                needed.add(left.column)
            if right.binding == binding:
                needed.add(right.column)
        for predicate in self.filters:
            for attr in predicate.attributes:
                if attr.binding == binding:
                    needed.add(attr.column)
        for attr in self.group_by:
            if attr.binding == binding:
                needed.add(attr.column)
        if self.having is not None:
            for ref in ast.column_refs(self.having):
                if ref.table == binding:
                    needed.add(ref.name)
        for order in self.order_by:
            for ref in ast.column_refs(order.expression):
                if ref.table == binding:
                    needed.add(ref.name)
        return needed


class _Resolver:
    """Resolves column names against the occurrences of one SELECT block."""

    def __init__(self, schema: DatabaseSchema, occurrences: dict[str, str]):
        self._schema = schema
        self._occurrences = occurrences
        # column name -> bindings that expose it
        self._column_homes: dict[str, list[str]] = {}
        for binding, table_name in occurrences.items():
            for column in schema.table(table_name).column_names:
                self._column_homes.setdefault(column, []).append(binding)

    def resolve_ref(self, ref: ast.ColumnRef) -> ast.ColumnRef:
        if ref.table is not None:
            if ref.table not in self._occurrences:
                raise UnknownTableError(ref.table)
            table = self._schema.table(self._occurrences[ref.table])
            if ref.name not in table:
                raise UnknownColumnError(ref.name, self._occurrences[ref.table])
            return ref
        homes = self._column_homes.get(ref.name, [])
        if not homes:
            raise UnknownColumnError(ref.name)
        if len(homes) > 1:
            raise AmbiguousColumnError(ref.name, homes)
        return ast.ColumnRef(ref.name, table=homes[0])

    def resolve(self, expr: ast.Expression) -> ast.Expression:
        """Rebuild ``expr`` with every ColumnRef fully qualified."""
        if isinstance(expr, ast.ColumnRef):
            return self.resolve_ref(expr)
        if type(expr) not in ast.CHILD_FIELDS:
            raise NormalizationError(f"cannot resolve expression {expr!r}")
        return ast.rebuild(expr, self.resolve)

    def expand_star(self, star: ast.Star) -> list[ast.ColumnRef]:
        bindings = [star.table] if star.table else list(self._occurrences)
        refs: list[ast.ColumnRef] = []
        for binding in bindings:
            if binding not in self._occurrences:
                raise UnknownTableError(binding)
            table = self._schema.table(self._occurrences[binding])
            refs.extend(ast.ColumnRef(c, table=binding) for c in table.column_names)
        return refs


def _collect_occurrences(
    from_items: tuple[ast.FromItem, ...],
) -> tuple[dict[str, str], list[ast.Expression]]:
    """Flatten the FROM clause into occurrences + ON-conditions."""
    occurrences: dict[str, str] = {}
    conditions: list[ast.Expression] = []
    for item in from_items:
        _collect_from_item(item, occurrences, conditions)
    return occurrences, conditions


def _collect_from_item(
    item: ast.FromItem,
    occurrences: dict[str, str],
    conditions: list[ast.Expression],
) -> None:
    if isinstance(item, ast.TableRef):
        binding = item.binding
        if binding in occurrences:
            raise NormalizationError(
                f"duplicate table binding {binding!r}; use distinct aliases"
            )
        occurrences[binding] = item.name
        return
    if item.kind == "LEFT":
        raise NormalizationError(
            "outer joins are outside the SPJA fragment BEAS operates on"
        )
    _collect_from_item(item.left, occurrences, conditions)
    _collect_from_item(item.right, occurrences, conditions)
    if item.condition is not None:
        conditions.append(item.condition)


def _as_attribute(ref: ast.ColumnRef) -> Attribute:
    assert ref.table is not None  # resolver guarantees qualification
    return Attribute(ref.table, ref.name)


def selection_literals(
    conjunct: ast.Expression,
) -> Optional[tuple[ast.ColumnRef, tuple[ast.Literal, ...]]]:
    """The column and the constants of a selection conjunct, or None.

    A selection is ``col = const``, ``const = col`` or ``col IN
    (consts)``, every constant a non-NULL literal and the IN not negated.
    This is the one rule: the normaliser files these under
    ``selections``, and a prepared template's parameter slots are the
    ones on an attribute constrained once (``serving.params``).
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        for column, constant in ((left, right), (right, left)):
            if isinstance(column, ast.ColumnRef) and ast.is_constant(constant):
                return column, (constant,)
        return None
    if (
        isinstance(conjunct, ast.InList)
        and not conjunct.negated
        and isinstance(conjunct.operand, ast.ColumnRef)
    ):
        literals = [i for i in conjunct.items if ast.is_constant(i)]
        if len(literals) == len(conjunct.items):
            return conjunct.operand, tuple(literals)
    return None


def canonical_selection(values: Sequence) -> tuple:
    """One selection's values in canonical order: deduplicated, then
    sorted by (type name, value). Plan rebinding orders a binding's
    values with this too, so a rebound plan enumerates keys in the order
    a fresh normalize would."""
    if len(values) == 1:
        return tuple(values)
    return tuple(sorted(set(values), key=lambda v: (str(type(v)), v)))


def _intersect_selection(
    selections: dict[Attribute, tuple], attr: Attribute, values: list
) -> None:
    unique = canonical_selection(values)
    if attr in selections:
        existing = set(selections[attr])
        unique = tuple(v for v in unique if v in existing)
    selections[attr] = unique


def normalize(
    statement: ast.SelectStatement, schema: DatabaseSchema
) -> ConjunctiveQuery:
    """Bring one SELECT block into canonical SPJA form.

    Raises :class:`~repro.errors.NormalizationError` for constructs outside
    the supported fragment (outer joins, aggregates mixed incorrectly with
    group keys, set-returning selects without FROM, ...).
    """
    if not statement.from_items:
        raise NormalizationError("SELECT without FROM is not supported")
    occurrences, on_conditions = _collect_occurrences(statement.from_items)
    resolver = _Resolver(schema, occurrences)

    # ---- select list ---------------------------------------------------
    output: list[OutputItem] = []
    aggregates: list[OutputItem] = []
    plain_items: list[OutputItem] = []
    counter = 0
    for item in statement.items:
        if isinstance(item.expression, ast.Star):
            for ref in resolver.expand_star(item.expression):
                output.append(OutputItem(ref, ref.name))
                plain_items.append(output[-1])
            continue
        resolved = resolver.resolve(item.expression)
        counter += 1
        if item.alias:
            name = item.alias
        elif isinstance(resolved, ast.ColumnRef):
            name = resolved.name
        else:
            name = f"col{counter}"
        entry = OutputItem(resolved, name)
        output.append(entry)
        if ast.contains_aggregate(resolved):
            aggregates.append(entry)
        else:
            plain_items.append(entry)

    # ---- group by -------------------------------------------------------
    group_by: list[Attribute] = []
    group_refs: set[ast.ColumnRef] = set()
    for expr in statement.group_by:
        resolved = resolver.resolve(expr)
        if not isinstance(resolved, ast.ColumnRef):
            raise NormalizationError("GROUP BY supports plain columns only")
        group_by.append(_as_attribute(resolved))
        group_refs.add(resolved)

    if aggregates or group_by:
        for entry in plain_items:
            refs = ast.column_refs(entry.expression)
            if not refs:
                continue
            for ref in refs:
                if ref not in group_refs:
                    raise NormalizationError(
                        f"non-aggregated column {ref} must appear in GROUP BY"
                    )

    having = resolver.resolve(statement.having) if statement.having else None
    if having is not None and not (aggregates or group_by):
        raise NormalizationError("HAVING requires aggregation")

    # ---- where conjuncts -------------------------------------------------
    selections: dict[Attribute, tuple] = {}
    equalities: list[tuple[Attribute, Attribute]] = []
    filters: list[ResolvedPredicate] = []

    all_conjuncts = ast.conjuncts(statement.where) + [
        c for cond in on_conditions for c in ast.conjuncts(cond)
    ]
    resolved_conjuncts = [
        part
        for conjunct in all_conjuncts
        for part in ast.conjuncts(ast.between_comparison(resolver.resolve(conjunct)))
    ]
    for resolved in resolved_conjuncts:
        selection = selection_literals(resolved)
        if selection is not None:
            column, literals = selection
            _intersect_selection(
                selections, _as_attribute(column), [lit.value for lit in literals]
            )
            continue
        if isinstance(resolved, ast.BinaryOp) and resolved.op == "=":
            left, right = resolved.left, resolved.right
            if isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef):
                equalities.append((_as_attribute(left), _as_attribute(right)))
                continue
        attrs = frozenset(_as_attribute(r) for r in ast.column_refs(resolved))
        filters.append(ResolvedPredicate(resolved, attrs))

    # ORDER BY may name an output alias (e.g. ``ORDER BY cnt`` for
    # ``COUNT(*) AS cnt``); such references stay unqualified and engines
    # sort on the output column instead of a base attribute.
    output_names = {item.name for item in output}
    order_by = []
    for o in statement.order_by:
        expr = o.expression
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.name in output_names
        ):
            order_by.append(ast.OrderItem(expr, o.ascending))
        else:
            order_by.append(ast.OrderItem(resolver.resolve(expr), o.ascending))

    return ConjunctiveQuery(
        occurrences=occurrences,
        output=output,
        selections=selections,
        equalities=equalities,
        filters=filters,
        group_by=group_by,
        aggregates=aggregates,
        having=having,
        order_by=order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )
