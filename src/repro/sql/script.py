"""Execute SQL scripts (CREATE TABLE / INSERT / SELECT) against a Database.

This is the loader path of the prototype: a database can be bootstrapped
entirely from a ``.sql`` file, then queried through BEAS or the
conventional engine. SELECT statements inside a script are evaluated with
the conventional engine and their results returned in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import DataType, coerce_value
from repro.errors import StorageError
from repro.sql import ast
from repro.sql.parser import parse_script
from repro.storage.database import Database


@dataclass
class ScriptResult:
    """Outcome of running one script."""

    tables_created: list[str] = field(default_factory=list)
    rows_inserted: int = 0
    select_results: list = field(default_factory=list)  # list[QueryResult]


def create_table_from_ast(database: Database, statement: ast.CreateTable) -> TableSchema:
    """Apply one CREATE TABLE to ``database``."""
    columns = [
        Column(col.name, DataType(col.type_name)) for col in statement.columns
    ]
    keys = [statement.primary_key] if statement.primary_key else []
    schema = TableSchema(statement.name, columns, keys=keys)
    database.create_table(schema)
    return schema


def insert_from_ast(database: Database, statement: ast.InsertValues) -> int:
    """Apply one INSERT ... VALUES to ``database``; returns rows inserted."""
    table = database.table(statement.table)
    schema = table.schema
    if statement.columns:
        positions = schema.positions(statement.columns)
        if len(set(positions)) != len(positions):
            raise StorageError("duplicate column in INSERT column list")
    else:
        positions = tuple(range(schema.arity))

    for row_number, values in enumerate(statement.rows):
        if len(values) != len(positions):
            raise StorageError(
                f"INSERT row {row_number + 1} has {len(values)} values for "
                f"{len(positions)} columns"
            )
        row: list = [None] * schema.arity
        for position, literal in zip(positions, values):
            column = schema.columns[position]
            row[position] = coerce_value(literal.value, column.dtype)
        table.insert(tuple(row))
    return len(statement.rows)


def run_script(
    database: Database,
    sql: str,
    *,
    engine: Optional[object] = None,
) -> ScriptResult:
    """Run a script against ``database``.

    SELECT statements need an engine; by default a fresh
    :class:`~repro.engine.executor.ConventionalEngine` over ``database``
    is used (pass a Session's ``server`` or any object with ``execute``
    to route them elsewhere).
    """
    from repro.engine.executor import ConventionalEngine

    result = ScriptResult()
    executor = engine
    for statement in parse_script(sql):
        if isinstance(statement, ast.CreateTable):
            create_table_from_ast(database, statement)
            result.tables_created.append(statement.name)
        elif isinstance(statement, ast.InsertValues):
            result.rows_inserted += insert_from_ast(database, statement)
        else:
            if executor is None:
                executor = ConventionalEngine(database)
            result.select_results.append(executor.execute(statement))
    return result
