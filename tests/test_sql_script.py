"""Tests for CREATE TABLE / INSERT parsing and script execution."""

import pytest

from repro.catalog.types import DataType
from repro.errors import ParseError, StorageError, TypeMismatchError
from repro.sql import ast
from repro.sql.parser import parse_script
from repro.sql.script import run_script
from repro.storage.database import Database


SCRIPT = """
CREATE TABLE call (
    call_id INT,
    pnum VARCHAR(16),
    date DATE,
    region TEXT,
    cost DOUBLE,
    roaming BOOLEAN,
    PRIMARY KEY (call_id)
);

INSERT INTO call VALUES
    (1, '100', '2016-06-01', 'north', 0.5, TRUE),
    (2, '101', '2016-06-01', 'south', 1.25, FALSE);

INSERT INTO call (call_id, pnum, date, region, cost, roaming)
VALUES (3, '100', '2016-06-02', 'east', 0.0, FALSE);

SELECT pnum, COUNT(*) AS n FROM call GROUP BY pnum ORDER BY pnum;
"""


class TestParseScript:
    def test_statement_kinds(self):
        statements = parse_script(SCRIPT)
        kinds = [type(s).__name__ for s in statements]
        assert kinds == [
            "CreateTable", "InsertValues", "InsertValues", "SelectStatement",
        ]

    def test_create_table_shape(self):
        create = parse_script(SCRIPT)[0]
        assert create.name == "call"
        assert [c.name for c in create.columns] == [
            "call_id", "pnum", "date", "region", "cost", "roaming",
        ]
        assert [c.type_name for c in create.columns] == [
            "int", "string", "date", "string", "float", "bool",
        ]
        assert create.primary_key == ("call_id",)

    def test_composite_primary_key(self):
        create = parse_script(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))"
        )[0]
        assert create.primary_key == ("a", "b")

    def test_duplicate_primary_key_rejected(self):
        with pytest.raises(ParseError):
            parse_script(
                "CREATE TABLE t (a INT, PRIMARY KEY (a), PRIMARY KEY (a))"
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError):
            parse_script("CREATE TABLE t (a BLOB)")

    def test_empty_table_rejected(self):
        with pytest.raises(ParseError):
            parse_script("CREATE TABLE t ()")

    def test_insert_literals_only(self):
        with pytest.raises(ParseError):
            parse_script("INSERT INTO t VALUES (1 + 2)")

    def test_negative_literals_fold(self):
        insert = parse_script("INSERT INTO t VALUES (-5, -1.5)")[0]
        assert insert.rows[0][0].value == -5
        assert insert.rows[0][1].value == -1.5

    def test_null_literal(self):
        insert = parse_script("INSERT INTO t VALUES (NULL)")[0]
        assert insert.rows[0][0].value is None

    def test_missing_semicolon_between_statements(self):
        with pytest.raises(ParseError):
            parse_script("CREATE TABLE t (a INT) CREATE TABLE u (b INT)")

    def test_type_names_stay_identifiers_elsewhere(self):
        # 'date' is a TLC column name; it must still parse as an identifier
        statement = parse_script("SELECT date FROM call WHERE date = '2016-01-01'")[0]
        assert isinstance(statement, ast.SelectStatement)


class TestRunScript:
    def test_full_script(self):
        db = Database()
        result = run_script(db, SCRIPT)
        assert result.tables_created == ["call"]
        assert result.rows_inserted == 3
        assert len(db.table("call")) == 3
        assert db.table("call").schema.has_key_within({"call_id"})
        (select_result,) = result.select_results
        assert select_result.rows == [("100", 2), ("101", 1)]

    def test_values_coerced_to_column_types(self):
        db = Database()
        run_script(
            db,
            "CREATE TABLE t (a INT, d DATE); INSERT INTO t VALUES (7, '2016-6-1')",
        )
        assert db.table("t").rows == [(7, "2016-06-01")]

    def test_type_mismatch_rejected(self):
        db = Database()
        with pytest.raises(TypeMismatchError):
            run_script(
                db, "CREATE TABLE t (a INT); INSERT INTO t VALUES ('abc')"
            )

    def test_arity_mismatch_rejected(self):
        db = Database()
        with pytest.raises(StorageError):
            run_script(db, "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1)")

    def test_partial_column_insert_fills_nulls(self):
        db = Database()
        run_script(
            db,
            "CREATE TABLE t (a INT, b INT); INSERT INTO t (b) VALUES (9)",
        )
        assert db.table("t").rows == [(None, 9)]

    def test_duplicate_insert_column_rejected(self):
        db = Database()
        with pytest.raises(StorageError):
            run_script(
                db,
                "CREATE TABLE t (a INT); INSERT INTO t (a, a) VALUES (1, 2)",
            )

    def test_select_through_custom_engine(self):
        """A Session can serve the SELECTs of a script."""
        from repro import AccessConstraint, Session

        db = Database()
        run_script(
            db,
            "CREATE TABLE t (k STRING, v STRING);"
            "INSERT INTO t VALUES ('a', 'x'), ('a', 'y'), ('b', 'z')",
        )
        session = Session(db)
        session.register(AccessConstraint("t", ["k"], ["v"], 10, name="c"))
        result = run_script(
            db, "SELECT DISTINCT v FROM t WHERE k = 'a'", engine=session
        )
        assert sorted(result.select_results[0].rows) == [("x",), ("y",)]
        assert result.select_results[0].metrics.tuples_scanned == 0
