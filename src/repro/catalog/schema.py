"""Table and database schemas.

A :class:`TableSchema` names its columns, their types, and (optionally) one
or more candidate keys. Keys matter to the bounded-evaluation core: a fetch
whose attributes include a key of the relation returns partial tuples that
are in bijection with rows, which is what makes bag-semantics aggregates
exact under bounded plans
(:meth:`~repro.access.constraint.AccessConstraint.covers_key_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.catalog.types import DataType
from repro.errors import CatalogError, UnknownColumnError, UnknownTableError


@dataclass(frozen=True)
class Column:
    """A named, typed column of a relation."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise CatalogError(f"invalid column name: {self.name!r}")


class TableSchema:
    """Schema of one relation: ordered columns plus declared candidate keys."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column | tuple[str, DataType]],
        keys: Iterable[Sequence[str]] = (),
    ):
        if not name:
            raise CatalogError("table name must be non-empty")
        normalized: list[Column] = []
        for col in columns:
            if isinstance(col, Column):
                normalized.append(col)
            else:
                col_name, dtype = col
                normalized.append(Column(col_name, dtype))
        if not normalized:
            raise CatalogError(f"table {name!r} must have at least one column")
        seen: set[str] = set()
        for col in normalized:
            if col.name in seen:
                raise CatalogError(f"duplicate column {col.name!r} in table {name!r}")
            seen.add(col.name)

        self.name = name
        self.columns: tuple[Column, ...] = tuple(normalized)
        #: positional column types (what the row codec is handed per batch)
        self.dtypes: tuple[DataType, ...] = tuple(col.dtype for col in normalized)
        self._positions = {col.name: i for i, col in enumerate(self.columns)}
        self.keys: tuple[frozenset[str], ...] = tuple(
            frozenset(key) for key in keys
        )
        for key in self.keys:
            for attr in key:
                if attr not in self._positions:
                    raise UnknownColumnError(attr, name)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __contains__(self, column: str) -> bool:
        return column in self._positions

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def position(self, column: str) -> int:
        """Index of ``column`` within a row tuple."""
        try:
            return self._positions[column]
        except KeyError:
            raise UnknownColumnError(column, self.name) from None

    def positions(self, columns: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.position(c) for c in columns)

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def dtype(self, column: str) -> DataType:
        return self.column(column).dtype

    def has_key_within(self, attributes: Iterable[str]) -> bool:
        """True when ``attributes`` include some declared candidate key."""
        attr_set = set(attributes)
        return any(key <= attr_set for key in self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and set(self.keys) == set(other.keys)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.columns))

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.dtype.value}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"


class DatabaseSchema:
    """A named collection of table schemas."""

    def __init__(self, tables: Iterable[TableSchema] = (), name: str = "db"):
        self.name = name
        self._tables: dict[str, TableSchema] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: TableSchema) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already declared")
        self._tables[table.name] = table

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def total_attributes(self) -> int:
        """Total number of attributes across all relations (TLC reports 285)."""
        return sum(t.arity for t in self._tables.values())

    def __repr__(self) -> str:
        return f"DatabaseSchema({self.name}: {', '.join(self._tables)})"


@dataclass(frozen=True)
class AttributeRef:
    """A (table, column) pair used throughout planning."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


def validate_attributes(schema: DatabaseSchema, refs: Iterable[AttributeRef]) -> None:
    """Raise if any reference names a missing table or column."""
    for ref in refs:
        table = schema.table(ref.table)
        if ref.column not in table:
            raise UnknownColumnError(ref.column, ref.table)


# Re-exported for convenience; discovery and bounded planning use it heavily.
__all__ = [
    "Column",
    "TableSchema",
    "DatabaseSchema",
    "AttributeRef",
    "validate_attributes",
]
