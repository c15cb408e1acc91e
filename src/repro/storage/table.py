"""In-memory table: a schema plus a list of row tuples.

Rows are plain tuples ordered by the schema's columns — compact, hashable,
and cheap to project. Mutation goes through :class:`Table`'s methods — the
maintenance module observes deltas there, and the row locator behind
:meth:`Table.delete_rows` is only exact if nothing edits ``rows`` in
place (beaslint ``table-mutation`` holds that for ``src/repro``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics, collect_statistics
from repro.catalog.types import coerce_value, is_compatible
from repro.errors import StorageError, TypeMismatchError
from repro.storage.codec import canonical_key

Row = tuple


class _RowLocator:
    """Where each live row occurrence sits, without scanning the table.

    Every occurrence gets an id when it enters the table. Ids only grow
    and ``rows`` keeps insertion order, so ``ids`` — the id column,
    parallel to ``rows`` — is always sorted: an id's current position is
    one ``bisect``, and removing it one C-level ``del`` on each list.
    ``where`` maps a row to the ids of its live occurrences, oldest
    first (deletes are bag-semantic, so multiplicities are tracked, not a
    set).
    """

    __slots__ = ("ids", "where")

    def __init__(self, rows: list[Row]):
        self.ids: list[int] = list(range(len(rows)))
        self.where: dict[Row, list[int]] = {}
        for ident, row in zip(self.ids, rows):
            self.where.setdefault(row, []).append(ident)

    def append(self, row: Row) -> None:
        ident = self.ids[-1] + 1 if self.ids else 0
        self.ids.append(ident)
        self.where.setdefault(row, []).append(ident)

    def count(self, row: Row) -> int:
        return len(self.where.get(row, ()))

    def take(self, row: Row, count: int) -> list[int]:
        """Forget the ``count`` oldest occurrences of ``row`` (fewer if
        fewer are live); returns their ids."""
        held = self.where.get(row)
        if held is None:
            return []
        taken = held[:count]
        del held[:count]
        if not held:
            del self.where[row]
        return taken

    def pop(self, row: Row) -> None:
        """Forget the table's last row, ``row``."""
        self.ids.pop()
        held = self.where[row]
        held.pop()  # the tail row is its newest occurrence
        if not held:
            del self.where[row]


class Table:
    """One relation instance.

    ``version`` is a monotonic mutation counter: every insert/delete bumps
    it, so caches (engine statistics, serving-layer result caches) can key
    on it instead of the row count — which misses insert+delete sequences
    that leave the cardinality unchanged.

    ``rows`` may be read freely and reassigned wholesale
    (``table.rows = [...]`` drops the locator); editing the list in place
    from outside this class is not supported.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence[Any]] = ()):
        self.schema = schema
        self._rows: list[Row] = []
        # built by the first delete_rows, kept in step by insert
        self._locator: Optional[_RowLocator] = None
        self.version: int = 0
        for row in rows:
            self.insert(row)

    @classmethod
    def from_trusted_rows(
        cls, schema: TableSchema, rows: Iterable[Row]
    ) -> "Table":
        """A fresh table over rows that are already typed, canonical
        tuples (decoded by the codec, or produced by an executor): no
        per-row validation, and ``version`` starts at 0."""
        table = cls(schema)
        table._rows = list(rows)
        return table

    @property
    def rows(self) -> list[Row]:
        return self._rows

    @rows.setter
    def rows(self, rows: list[Row]) -> None:
        self._rows = rows
        self._locator = None

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, row: Sequence[Any], *, coerce: bool = False) -> Row:
        """Append one row. With ``coerce=True`` raw values (e.g. CSV strings)
        are converted to the declared column types; otherwise they must
        already match."""
        if len(row) != self.schema.arity:
            raise StorageError(
                f"row arity {len(row)} does not match table "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        if coerce:
            values = canonical_key(
                coerce_value(value, column.dtype)
                for value, column in zip(row, self.schema.columns)
            )
        else:
            for value, column in zip(row, self.schema.columns):
                if not is_compatible(value, column.dtype):
                    raise TypeMismatchError(
                        f"value {value!r} is not a {column.dtype.name} "
                        f"(column {self.schema.name}.{column.name})"
                    )
            # canonicalise NaN so bag-semantics deletes and DISTINCT
            # dedup stay exact (see repro.storage.codec)
            values = canonical_key(row)
        self._rows.append(values)
        if self._locator is not None:
            self._locator.append(values)
        self.version += 1
        return values

    def insert_many(self, rows: Iterable[Sequence[Any]], *, coerce: bool = False) -> int:
        count = 0
        for row in rows:
            self.insert(row, coerce=coerce)
            count += 1
        return count

    def undo_inserts(self, count: int) -> None:
        """Remove the last ``count`` rows: the undo of that many
        :meth:`insert` calls, for the writer that made them. ``version``
        is not rewound — a rolled-back batch still moves it, so caches
        keyed on it are dropped conservatively."""
        locator = self._in_step()
        for _ in range(count):
            row = self._rows.pop()
            if locator is not None:
                locator.pop(row)

    def delete(self, predicate: Callable[[Row], bool]) -> list[Row]:
        """Remove rows matching ``predicate``; returns the removed rows.
        O(rows), and the locator is rebuilt by the next ``delete_rows``."""
        kept: list[Row] = []
        removed: list[Row] = []
        for row in self._rows:
            (removed if predicate(row) else kept).append(row)
        self.rows = kept
        if removed:
            self.version += 1
        return removed

    def delete_rows(
        self, rows: Iterable[Sequence[Any]], *, strict: bool = False
    ) -> list[Row]:
        """Remove one occurrence of each given row (bag semantics): the
        oldest ones, the order of the rest kept; returns the removed rows
        in table order. A row with no occurrence of its own is skipped —
        or, with ``strict``, refuses the whole batch with a
        :class:`StorageError` before anything is touched.
        O(batch · log rows) once the locator exists."""
        locator = self._located()
        wanted = Counter(canonical_key(r) for r in rows)
        if strict and any(locator.count(row) < n for row, n in wanted.items()):
            raise StorageError(
                f"some rows are not present in {self.schema.name!r}"
            )
        taken: list[int] = []
        for row, count in wanted.items():
            taken.extend(locator.take(row, count))
        if not taken:
            return []
        taken.sort()
        live, ids = self._rows, locator.ids
        positions = [bisect_left(ids, ident) for ident in taken]
        removed = [live[position] for position in positions]
        for position in reversed(positions):
            del live[position]
            del ids[position]
        self.version += 1
        return removed

    def _in_step(self) -> Optional[_RowLocator]:
        """The locator, if there is one and it still describes ``rows``.
        A length mismatch means the list was edited in place from outside
        (unsupported, but a wrong position would delete the wrong row):
        the locator is dropped instead."""
        locator = self._locator
        if locator is not None and len(locator.ids) != len(self._rows):
            locator = self._locator = None
        return locator

    def _located(self) -> _RowLocator:
        locator = self._in_step()
        if locator is None:
            locator = self._locator = _RowLocator(self._rows)
        return locator

    def clear(self) -> None:
        self._rows.clear()
        self._locator = None
        self.version += 1

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def project(self, columns: Sequence[str], *, distinct: bool = False) -> list[Row]:
        """Project onto ``columns``; with ``distinct`` deduplicate, preserving
        first-seen order (deterministic for tests)."""
        positions = self.schema.positions(columns)
        projected = [tuple(row[i] for i in positions) for row in self.rows]
        if not distinct:
            return projected
        seen: set[Row] = set()
        out: list[Row] = []
        for row in projected:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out

    def column_values(self, column: str) -> list[Any]:
        position = self.schema.position(column)
        return [row[position] for row in self.rows]

    def statistics(self) -> TableStatistics:
        return collect_statistics(self)

    def __repr__(self) -> str:
        return f"Table({self.schema.name}, rows={len(self.rows)})"
