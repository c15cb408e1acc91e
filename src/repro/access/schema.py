"""Access schemas: named sets of access constraints over a database schema."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.access.constraint import AccessConstraint
from repro.catalog.schema import DatabaseSchema
from repro.errors import AccessSchemaError


class AccessSchema:
    """A set of access constraints ``A`` over a database schema ``R``."""

    def __init__(self, constraints: Iterable[AccessConstraint] = (), name: str = "A"):
        self.name = name
        self._constraints: dict[str, AccessConstraint] = {}
        for constraint in constraints:
            self.add(constraint)

    # ------------------------------------------------------------------ #
    def add(self, constraint: AccessConstraint) -> AccessConstraint:
        if constraint.name in self._constraints:
            raise AccessSchemaError(
                f"constraint named {constraint.name!r} already registered"
            )
        self._constraints[constraint.name] = constraint
        return constraint

    def replace(self, constraint: AccessConstraint) -> AccessConstraint:
        """Put ``constraint`` in the place of the one with its name: the
        schema's order, which breaks the planner's ties, is kept."""
        self.get(constraint.name)
        self._constraints[constraint.name] = constraint
        return constraint

    def remove(self, name: str) -> AccessConstraint:
        try:
            return self._constraints.pop(name)
        except KeyError:
            raise AccessSchemaError(f"no constraint named {name!r}") from None

    def get(self, name: str) -> AccessConstraint:
        try:
            return self._constraints[name]
        except KeyError:
            raise AccessSchemaError(f"no constraint named {name!r}") from None

    # ------------------------------------------------------------------ #
    def constraints_for(self, relation: str) -> list[AccessConstraint]:
        """All constraints on one relation (planning iterates these)."""
        return [c for c in self._constraints.values() if c.relation == relation]

    def relations(self) -> set[str]:
        return {c.relation for c in self._constraints.values()}

    def validate_against(self, schema: DatabaseSchema) -> None:
        """Check every constraint references existing tables/columns."""
        for constraint in self._constraints.values():
            table_schema = schema.table(constraint.relation)
            constraint.validate_against(table_schema)

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[AccessConstraint]:
        return iter(self._constraints.values())

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, name: str) -> bool:
        return name in self._constraints

    def __repr__(self) -> str:
        return f"AccessSchema({self.name}: {len(self)} constraints)"

    def describe(self) -> str:
        """Multi-line listing, one constraint per line (demo portal style)."""
        return "\n".join(str(c) for c in self._constraints.values())
