"""Parameterised constant slots for prepared queries.

A prepared template's *slots* are the constants of its WHERE clause that
bounded evaluation treats as enumerable bindings: top-level conjuncts of
the form ``attr = constant`` and ``attr IN (constants)``. One template
then serves many bindings — ``PreparedQuery.execute({"call.date":
"2016-06-02"})`` substitutes fresh constants into a copy of the AST
without re-parsing the text.

Slots are named by their resolved attribute (``binding.column``); an
unqualified column name is accepted in overrides when it is unambiguous
across the template's FROM items, mirroring the normalizer's resolution
rules. Constants appearing anywhere else (range predicates, LIKE
patterns, HAVING, …) stay fixed in the template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from repro.catalog.schema import DatabaseSchema
from repro.errors import (
    NormalizationError,
    ReproError,
    ServingError,
    UnknownParameterError,
)
from repro.sql import ast
from repro.sql.fingerprint import _and_conjuncts, _rebuild_and
from repro.sql.normalize import _Resolver, _collect_occurrences


@dataclass(frozen=True)
class ParameterSlot:
    """One parameterisable constant position of a template."""

    name: str  # "binding.column"
    kind: str  # "eq" | "in"
    values: tuple  # the template's own constants

    def describe(self) -> str:
        rendered = ", ".join(repr(v) for v in self.values)
        return f"{self.name} {self.kind} ({rendered})"


def _slot_conjunct(
    conjunct: ast.Expression, resolver: _Resolver
) -> Optional[tuple[str, str, tuple[ast.Literal, ...]]]:
    """Recognise ``attr = const`` / ``attr IN (consts)`` as (slot name,
    kind, the constants' nodes); None otherwise."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        sides = (conjunct.left, conjunct.right)
        for ref, lit in (sides, sides[::-1]):
            if (
                isinstance(ref, ast.ColumnRef)
                and isinstance(lit, ast.Literal)
                and lit.value is not None
            ):
                resolved = resolver.resolve_ref(ref)
                return (str(resolved), "eq", (lit,))
        return None
    if (
        isinstance(conjunct, ast.InList)
        and not conjunct.negated
        and isinstance(conjunct.operand, ast.ColumnRef)
        and all(
            isinstance(item, ast.Literal) and item.value is not None
            for item in conjunct.items
        )
    ):
        resolved = resolver.resolve_ref(conjunct.operand)
        return (
            str(resolved),
            "in",
            tuple(i for i in conjunct.items if isinstance(i, ast.Literal)),
        )
    return None


def _template_parts(
    statement: ast.SelectStatement, db_schema: DatabaseSchema
) -> Optional[tuple[_Resolver, list[ast.Expression]]]:
    if statement.where is None:
        return None
    try:
        occurrences, _ = _collect_occurrences(statement.from_items)
        resolver = _Resolver(db_schema, occurrences)
    except (NormalizationError, ReproError):
        return None  # outside the resolvable fragment: no slots
    return resolver, _and_conjuncts(statement.where)


def slot_literals(
    statement: ast.Statement, db_schema: DatabaseSchema
) -> dict[str, tuple[str, tuple[ast.Literal, ...]]]:
    """Slot name -> (kind, the nodes of its constants): the one rule for
    what is a parameter slot (empty for set operations). Every other
    literal of the statement stays fixed in the template."""
    if not isinstance(statement, ast.SelectStatement):
        return {}
    parts = _template_parts(statement, db_schema)
    if parts is None:
        return {}
    resolver, conjuncts = parts
    slots: dict[str, tuple[str, tuple[ast.Literal, ...]]] = {}
    ambiguous: set[str] = set()
    for conjunct in conjuncts:
        try:
            recognised = _slot_conjunct(conjunct, resolver)
        except ReproError:
            recognised = None
        if recognised is None:
            continue
        name, kind, literals = recognised
        if name in slots:
            # the same attribute constrained twice: not parameterisable
            ambiguous.add(name)
            continue
        slots[name] = (kind, literals)
    for name in ambiguous:
        slots.pop(name, None)
    return slots


def extract_slots(
    statement: ast.Statement, db_schema: DatabaseSchema
) -> dict[str, ParameterSlot]:
    """The parameterisable slots of a template (empty for set operations)."""
    return {
        name: ParameterSlot(name, kind, tuple(lit.value for lit in literals))
        for name, (kind, literals) in slot_literals(statement, db_schema).items()
    }


def canonical_values(value: Any) -> tuple:
    """Coerce one override (scalar or sequence) to a canonical value tuple."""
    if isinstance(value, (list, tuple, set, frozenset)):
        values = tuple(value)
    else:
        values = (value,)
    if not values:
        raise ServingError("a parameter override needs at least one value")
    for v in values:
        if v is None:
            raise ServingError(
                "NULL is not a valid parameter value (x = NULL never holds)"
            )
    if len(values) == 1:
        return values
    return tuple(sorted(set(values), key=lambda v: (str(type(v)), repr(v))))


def resolve_slot_name(key: str, slots: Mapping[str, ParameterSlot]) -> str:
    """Resolve one override key to its slot name.

    Keys may be fully qualified (``binding.column``) or bare column names
    when unambiguous among the slots; unknown or ambiguous keys raise.
    """
    if key in slots:
        return key
    if "." not in key:
        matches = [s for s in slots if s.split(".", 1)[1] == key]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ServingError(
                f"parameter {key!r} is ambiguous among slots: "
                f"{', '.join(matches)}"
            )
    raise UnknownParameterError(key, sorted(slots))


def resolve_overrides(
    overrides: Mapping[str, Any],
    slots: Mapping[str, ParameterSlot],
    statement: ast.Statement,
    db_schema: DatabaseSchema,
) -> dict[str, tuple]:
    """Map override keys to slot names, canonicalising the values."""
    return {
        resolve_slot_name(key, slots): canonical_values(value)
        for key, value in overrides.items()
    }


def substitute(
    statement: ast.SelectStatement,
    overrides: Mapping[str, tuple],
    db_schema: DatabaseSchema,
) -> ast.SelectStatement:
    """A copy of ``statement`` with slot constants replaced.

    ``overrides`` must already be resolved (slot name -> value tuple, via
    :func:`resolve_overrides`). Conjuncts that are not overridden slots
    are shared, not copied — AST nodes are immutable.
    """
    if not overrides:
        return statement
    parts = _template_parts(statement, db_schema)
    if parts is None:  # pragma: no cover - callers check slots first
        raise ServingError("template has no parameterisable WHERE clause")
    resolver, conjuncts = parts
    replaced: set[str] = set()
    rebuilt: list[ast.Expression] = []
    for conjunct in conjuncts:
        recognised = _slot_conjunct(conjunct, resolver)
        if recognised is None or recognised[0] not in overrides:
            rebuilt.append(conjunct)
            continue
        name = recognised[0]
        values = overrides[name]
        operand: ast.Expression
        if isinstance(conjunct, ast.InList):
            operand = conjunct.operand
        else:
            left, right = conjunct.left, conjunct.right
            operand = left if isinstance(left, ast.ColumnRef) else right
        if len(values) == 1:
            rebuilt.append(ast.BinaryOp("=", operand, ast.Literal(values[0])))
        else:
            rebuilt.append(
                ast.InList(operand, tuple(ast.Literal(v) for v in values))
            )
        replaced.add(name)
    missing = set(overrides) - replaced
    if missing:  # pragma: no cover - resolve_overrides guards this
        raise ServingError(
            f"slots not found in template: {', '.join(sorted(missing))}"
        )
    return ast.SelectStatement(
        items=statement.items,
        from_items=statement.from_items,
        where=_rebuild_and(rebuilt),
        group_by=statement.group_by,
        having=statement.having,
        order_by=statement.order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


def binding_signature(overrides: Mapping[str, tuple]) -> tuple:
    """A hashable, order-independent key for one set of resolved overrides:
    its items, sorted by slot name. The binding's fingerprint and its
    :func:`rebind_signature` are both derived from this one sort."""
    return tuple(sorted(overrides.items()))


def rebind_signature(overrides: Mapping[str, tuple]) -> tuple:
    """The binding's *shape*: slot names, IN-list arities, and per-value
    type classes — everything the checker's verdict and bound arithmetic
    can depend on, with the constant values abstracted away.

    The serving layer keys pinned rebind templates by this signature
    (plus the template fingerprint and access-schema generation), so two
    bindings share a pinned plan exactly when constraint-preserving
    rebinding is sound for them: equal arity and type class per slot.
    NULL-ness never appears — :func:`canonical_values` rejects NULL
    overrides outright (``x = NULL`` never holds), so a NULL-bearing
    binding cannot reach the rebind path at all.
    """
    return signature_shape(binding_signature(overrides))


def signature_shape(signature: tuple) -> tuple:
    """:func:`rebind_signature` of an already sorted :func:`binding_signature`."""
    return tuple(
        (name, len(values), tuple(type(v).__name__ for v in values))
        for name, values in signature
    )


Override = Union[Any, Sequence[Any]]
