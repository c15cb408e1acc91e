"""CSV import/export for tables.

The exported format writes a header with ``name:type`` per column so a table
round-trips without a separate schema file. Cell encoding is delegated to
the canonical value codec (:mod:`repro.storage.codec`) shared with the WAL
and the mmap segment format: NULL is the empty string, empty strings are
``""``, quote-shaped literals get one extra quote pair, and float specials
round-trip as ``nan`` / ``inf`` / ``-inf`` (NaN decoding to the canonical
NaN object — see the codec module for the 3VL treatment).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TextIO

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import DataType
from repro.errors import StorageError
from repro.storage.codec import decode_value, encode_value
from repro.storage.table import Table

_encode = encode_value
_decode = decode_value


def dump_csv(table: Table, destination: str | Path | TextIO) -> None:
    """Write ``table`` (schema header + rows) to ``destination``."""
    own = isinstance(destination, (str, Path))
    handle: TextIO = open(destination, "w", newline="") if own else destination  # type: ignore[arg-type]
    try:
        writer = csv.writer(handle)
        writer.writerow(
            f"{col.name}:{col.dtype.value}" for col in table.schema.columns
        )
        for row in table.rows:
            writer.writerow(_encode(v) for v in row)
    finally:
        if own:
            handle.close()


def load_csv(
    source: str | Path | TextIO,
    schema: TableSchema | None = None,
    *,
    table_name: str | None = None,
) -> Table:
    """Read a table from ``source``.

    Without an explicit ``schema`` the header must carry ``name:type`` pairs
    (the format produced by :func:`dump_csv`).
    """
    own = isinstance(source, (str, Path))
    handle: TextIO = open(source, "r", newline="") if own else source  # type: ignore[arg-type]
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError("empty CSV input: missing header") from None
        if schema is None:
            columns: list[Column] = []
            for cell in header:
                if ":" not in cell:
                    raise StorageError(
                        f"CSV header cell {cell!r} lacks a ':type' suffix and "
                        "no schema was supplied"
                    )
                name, _, type_text = cell.rpartition(":")
                try:
                    dtype = DataType(type_text)
                except ValueError:
                    raise StorageError(f"unknown type {type_text!r} in CSV header") from None
                columns.append(Column(name, dtype))
            schema = TableSchema(table_name or "csv_table", columns)
        else:
            expected = [c.name for c in schema.columns]
            got = [cell.rpartition(":")[0] if ":" in cell else cell for cell in header]
            if got != expected:
                raise StorageError(
                    f"CSV header {got!r} does not match schema columns {expected!r}"
                )
        rows = []
        for row in reader:
            if len(row) != schema.arity:
                raise StorageError(
                    f"CSV row arity {len(row)} does not match schema arity {schema.arity}"
                )
            rows.append(
                tuple(_decode(cell, col.dtype) for cell, col in zip(row, schema.columns))
            )
        return Table.from_trusted_rows(schema, rows)
    finally:
        if own:
            handle.close()


def table_to_csv_text(table: Table) -> str:
    """Render ``table`` as a CSV string (used by tests and examples)."""
    buffer = io.StringIO()
    dump_csv(table, buffer)
    return buffer.getvalue()


def table_from_csv_text(text: str, schema: TableSchema | None = None) -> Table:
    return load_csv(io.StringIO(text), schema)
