"""In-memory table: a schema plus a list of row tuples.

Rows are plain tuples ordered by the schema's columns — compact, hashable,
and cheap to project. Mutation goes through :class:`Table`'s methods — the
maintenance module observes deltas there, and the row locator behind
:meth:`Table.delete_rows` is only exact if nothing edits ``rows`` in
place (beaslint ``table-mutation`` holds that for ``src/repro``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics, collect_statistics
from repro.catalog.types import DataType, coerce_value, is_compatible
from repro.errors import StorageError, TypeMismatchError
from repro.storage.codec import (
    EXACT_TYPES,
    ExactRows,
    canonical_key,
    exactly_typed,
    json_gate,
    nan_free,
)

Row = tuple

#: a normalised ISO date — a subset of what ``is_compatible`` takes for a
#: DATE (it also takes ``2016-6-1``, which goes through the walk and is
#: stored as ``2016-06-01``, the one spelling the codec decodes to)
_ISO_DATE = re.compile(r"[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])")

#: how many distinct valid DATE strings a plan remembers before it
#: forgets them all and starts over
DATE_MEMO_ENTRIES = 4096


class WritePlan:
    """What a table's schema fixes about a write batch, compiled once.

    Per column the admissible exact types, the FLOAT positions (the only
    cells that can hold a NaN) and the DATE positions; and the codec's
    gate for the batches the WAL logs as they are. A batch is checked
    column-wise, in C-level passes, and a batch that does not pass at a
    glance gets the per-value walk: what is accepted, and what a refusal
    says, is ``is_compatible``'s word either way.
    """

    def __init__(self, schema: TableSchema):
        self._schema = schema
        dtypes = schema.dtypes
        self._arity = {schema.arity}
        self._exact = tuple(EXACT_TYPES[dtype] for dtype in dtypes)
        self._floats = tuple(
            i for i, dtype in enumerate(dtypes) if dtype is DataType.FLOAT
        )
        self._dates = tuple(
            i for i, dtype in enumerate(dtypes) if dtype is DataType.DATE
        )
        self._valid_dates: set[Optional[str]] = {None}
        #: ``rows -> bool``: whether the WAL may log them as they are
        self.json_native = json_gate(dtypes)

    def admit(self, rows: Iterable[Sequence[Any]], *, coerce: bool = False) -> list[Row]:
        """The batch as the tuples the table would store, or the error
        its first inadmissible row earns; nothing is touched. A batch
        admitted at a glance comes back as :class:`~repro.storage.codec.
        ExactRows`."""
        rows = list(rows)
        if coerce:
            return [self._coerced(row) for row in rows]
        if not rows or (self._exactly_typed(rows) and nan_free(rows, self._floats)):
            return ExactRows(map(tuple, rows))
        # a subclass, ``2016-6-1``, a NaN, an int no float can hold, a
        # wrong type or arity: value by value
        return [canonical_key(row) for row in self._walk(rows)]

    def canonical(self, rows: list) -> list[Row]:
        """The rows a delete names, spelled as :meth:`admit` stores
        them: DATE cells normalised, every NaN the one shared object
        (see :mod:`repro.storage.codec`). A cell that is no value of its
        column stays as it is, and names no stored row."""
        rows = self._dated(rows)
        if nan_free(rows, self._floats):
            return list(map(tuple, rows))
        return [canonical_key(row) for row in rows]

    def _dated(self, rows: list) -> list:
        """``rows`` with each DATE cell as the codec decodes it
        (``2016-6-1`` -> ``2016-06-01``), so that the live table, its
        index keys, the WAL and a replica's delta hold one spelling."""
        dates = self._dates
        valid = self._valid_dates
        try:
            columns = [tuple(map(itemgetter(i), rows)) for i in dates]
            if all(valid.issuperset(c) or self._learn_dates(c) for c in columns):
                return rows
        except (TypeError, IndexError):  # a cell no DATE can be, a short row
            pass
        dated = []
        for row in rows:
            cells = list(row)
            for i in dates:
                if i < len(cells) and isinstance(cells[i], str):
                    try:
                        cells[i] = coerce_value(cells[i], DataType.DATE)
                    except TypeMismatchError:
                        pass
            dated.append(tuple(cells))
        return dated

    def _exactly_typed(self, rows: list) -> bool:
        try:
            if set(map(len, rows)) != self._arity:
                return False
        except TypeError:  # a row without a length: the walk reports it
            return False
        columns = tuple(zip(*rows))
        if not exactly_typed(columns, self._exact):
            return False
        valid = self._valid_dates
        for position in self._dates:
            if not valid.issuperset(columns[position]):
                if not self._learn_dates(columns[position]):
                    return False
        return True

    def _learn_dates(self, column: tuple) -> bool:
        valid = self._valid_dates
        if len(valid) >= DATE_MEMO_ENTRIES:
            valid.clear()
            valid.add(None)
        for value in column:
            if value not in valid:
                if _ISO_DATE.fullmatch(value) is None:
                    return False
                valid.add(value)
        return True

    def _walk(self, rows: list) -> list:
        """The per-value check; returns the batch as :meth:`_dated`."""
        schema = self._schema
        for row in rows:
            self._check_arity(row)
            for value, column in zip(row, schema.columns):
                if not is_compatible(value, column.dtype):
                    raise TypeMismatchError(
                        f"value {value!r} is not a {column.dtype.name} "
                        f"(column {schema.name}.{column.name})"
                    )
        return self._dated(rows)

    def _coerced(self, row: Sequence[Any]) -> Row:
        self._check_arity(row)
        return canonical_key(map(coerce_value, row, self._schema.dtypes))

    def _check_arity(self, row: Sequence[Any]) -> None:
        schema = self._schema
        if len(row) != schema.arity:
            raise StorageError(
                f"row arity {len(row)} does not match table "
                f"{schema.name!r} arity {schema.arity}"
            )


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
        self.ids: list[int] = []
        self.where: dict[Row, list[int]] = {}
        self.extend(rows)

    def extend(self, rows: list[Row]) -> None:
        first = self.ids[-1] + 1 if self.ids else 0
        fresh = range(first, first + len(rows))
        self.ids.extend(fresh)
        where = self.where
        for ident, row in zip(fresh, rows):
            where.setdefault(row, []).append(ident)

    def take(self, rows: list[Row], *, strict: bool) -> Optional[list[int]]:
        """Forget the oldest occurrence of each of ``rows`` (a row named
        ``n`` times loses its ``n`` oldest, or all it has); returns their
        ids, grouped by row in the order the rows are first named. With
        ``strict``, a row with fewer live occurrences than it is named
        makes this return ``None`` with nothing forgotten."""
        where = self.where
        # one hash per row: its ids leave the map here, and what the row
        # keeps goes back in
        held = [where.pop(row, None) for row in rows]
        if None not in held:  # every row is there, and is named once
            for row, ids in zip(rows, held):
                if len(ids) > 1:
                    where[row] = ids[1:]
            return [ids[0] for ids in held]
        # a row is missing, or is named again after its ids left: back
        # they all go, and the rows are counted
        where.update((row, ids) for row, ids in zip(rows, held) if ids is not None)
        wanted = Counter(rows)
        held = [where.get(row) for row in wanted]
        if strict and not all(
            ids is not None and len(ids) >= count
            for ids, count in zip(held, wanted.values())
        ):
            return None
        taken: list[int] = []
        for row, count, ids in zip(wanted, wanted.values(), held):
            if ids is not None:
                taken += ids[:count]
                del ids[:count]
                if not ids:
                    del where[row]
        return taken


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
        # built by the first delete_rows, kept in step by extend
        self._locator: Optional[_RowLocator] = None
        self._plan: Optional[WritePlan] = None  # built by the first write
        self.version: int = 0
        rows = list(rows)
        if rows:
            self.insert_rows(rows)

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
    @property
    def plan(self) -> WritePlan:
        """The schema's compiled write plan (admission, NaN
        canonicalisation, the WAL's JSON gate)."""
        plan = self._plan
        if plan is None:
            plan = self._plan = WritePlan(self.schema)
        return plan

    def admit(
        self, rows: Iterable[Sequence[Any]], *, coerce: bool = False
    ) -> list[Row]:
        """Type-check a whole batch without touching the table: the
        tuples :meth:`extend` would append, or the first inadmissible
        row's ``StorageError`` (arity) / ``TypeMismatchError``. With
        ``coerce=True`` raw values (e.g. CSV strings) are converted to
        the declared column types; otherwise they must already match."""
        return self.plan.admit(rows, coerce=coerce)

    def extend(self, rows: list[Row]) -> None:
        """Append rows :meth:`admit` returned; ``version`` advances by
        one per row."""
        self._rows.extend(rows)
        if self._locator is not None:
            self._locator.extend(rows)
        self.version += len(rows)

    def insert_rows(
        self, rows: Iterable[Sequence[Any]], *, coerce: bool = False
    ) -> list[Row]:
        """Append a batch, all of it or — when some row is inadmissible —
        none of it; returns the stored rows."""
        stored = self.admit(rows, coerce=coerce)
        self.extend(stored)
        return stored

    def insert(self, row: Sequence[Any], *, coerce: bool = False) -> Row:
        """Append one row; returns it as stored."""
        return self.insert_rows((row,), coerce=coerce)[0]

    def insert_many(self, rows: Iterable[Sequence[Any]], *, coerce: bool = False) -> int:
        return len(self.insert_rows(rows, coerce=coerce))

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
        found = self._take(self.plan.canonical(list(rows)), strict)
        return [row for _, row in sorted(found, key=itemgetter(0))]

    def take_rows(self, rows: Iterable[Sequence[Any]]) -> list[Row]:
        """A strict :meth:`delete_rows` that returns the batch, in its
        own order, with each row as the table stored it (``1.0 == 1 ==
        True``: a caller may spell a stored row in a way its column's
        type would not decode, and what is logged has to decode)."""
        named = self.plan.canonical(list(rows))
        stored = [row for _, row in self._take(named, strict=True)]
        if stored != named:
            # a row named twice: occurrences come back grouped by row,
            # and equal rows stand in for each other
            spelling = dict(zip(stored, stored))
            stored = [spelling[row] for row in named]
        return stored

    def _take(self, rows: list[Row], strict: bool) -> list[tuple[int, Row]]:
        """Remove the oldest occurrence of each of ``rows`` (canonical
        tuples); returns the position each had and the stored row,
        grouped by row in the order the rows are first named."""
        locator = self._located()
        taken = locator.take(rows, strict=strict)
        if taken is None:
            raise StorageError(
                f"some rows are not present in {self.schema.name!r}"
            )
        if not taken:
            return []
        live, ids = self._rows, locator.ids
        positions = [bisect_left(ids, ident) for ident in taken]
        found = [(position, live[position]) for position in positions]
        for position in sorted(positions, reverse=True):
            del live[position]
            del ids[position]
        self.version += 1
        return found

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
