"""Unit tests for repro.storage (table, database, CSV round-trips, codec)."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import DatabaseSchema, TableSchema
from repro.catalog.types import DataType
from repro.errors import StorageError, TypeMismatchError, UnknownTableError
from repro.storage.codec import (
    CANONICAL_NAN,
    canonical_key,
    canonical_value,
    decode_value,
    encode_value,
    is_nan,
)
from repro.storage.csvio import dump_csv, load_csv, table_from_csv_text, table_to_csv_text
from repro.storage.database import Database
from repro.storage.table import Table


def schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            ("i", DataType.INT),
            ("f", DataType.FLOAT),
            ("s", DataType.STRING),
            ("b", DataType.BOOL),
            ("d", DataType.DATE),
        ],
    )


class TestTable:
    def test_insert_and_len(self):
        table = Table(schema())
        table.insert((1, 1.5, "x", True, "2016-06-01"))
        assert len(table) == 1

    def test_insert_wrong_arity(self):
        with pytest.raises(StorageError):
            Table(schema()).insert((1, 2.0))

    def test_insert_wrong_type(self):
        with pytest.raises(TypeMismatchError):
            Table(schema()).insert(("one", 1.5, "x", True, "2016-06-01"))

    def test_insert_coerce(self):
        table = Table(schema())
        stored = table.insert(("3", "1.5", 7, "yes", "2016-6-1"), coerce=True)
        assert stored == (3, 1.5, "7", True, "2016-06-01")

    def test_insert_many(self):
        table = Table(schema())
        stored = table.insert_rows(
            [(1, 1.0, "a", False, "2016-01-01"), (2, 2.0, "b", True, "2016-01-02")]
        )
        assert len(stored) == 2 and len(table) == 2

    def test_delete_predicate(self):
        table = Table(schema())
        table.insert((1, 1.0, "a", False, "2016-01-01"))
        table.insert((2, 2.0, "b", True, "2016-01-02"))
        removed = table.delete(lambda row: row[0] == 1)
        assert len(removed) == 1 and len(table) == 1

    def test_delete_rows_bag_semantics(self):
        table = Table(schema())
        row = (1, 1.0, "a", False, "2016-01-01")
        table.insert(row)
        table.insert(row)
        removed = table.delete_rows([row])
        assert len(removed) == 1 and len(table) == 1

    def test_project_distinct_preserves_order(self):
        table = Table(schema())
        table.insert((1, 1.0, "a", False, "2016-01-01"))
        table.insert((2, 1.0, "a", False, "2016-01-01"))
        table.insert((1, 2.0, "b", False, "2016-01-01"))
        assert table.project(["i"], distinct=True) == [(1,), (2,)]

    def test_column_values(self):
        table = Table(schema())
        table.insert((1, 1.0, "a", False, "2016-01-01"))
        assert table.project(["s"]) == [("a",)]

    def test_nulls_allowed(self):
        table = Table(schema())
        table.insert((None, None, None, None, None))
        assert table.rows[0] == (None,) * 5


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table(schema())
        assert db.table("t").schema.name == "t"

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            Database().table("missing")

    def test_duplicate_rejected(self):
        db = Database()
        db.create_table(schema())
        with pytest.raises(StorageError):
            db.create_table(schema())

    def test_from_database_schema(self):
        db = Database(DatabaseSchema([schema()]))
        assert "t" in db

    def test_total_rows(self):
        db = Database(DatabaseSchema([schema()]))
        db.insert("t", (1, 1.0, "a", False, "2016-01-01"))
        assert db.total_rows() == 1

    def test_statistics(self):
        db = Database(DatabaseSchema([schema()]))
        db.insert("t", (1, 1.0, "a", False, "2016-01-01"))
        assert db.statistics()["t"].row_count == 1


class TestCSV:
    def test_round_trip_basic(self):
        table = Table(schema())
        table.insert((1, 1.5, "hello, world", True, "2016-06-01"))
        table.insert((None, None, "", False, None))
        text = table_to_csv_text(table)
        back = table_from_csv_text(text)
        assert back.rows == table.rows
        assert back.schema.column_names == table.schema.column_names

    def test_null_vs_empty_string(self):
        table = Table(schema())
        table.insert((1, 1.0, "", True, "2016-01-01"))
        table.insert((2, 2.0, None, True, "2016-01-01"))
        back = table_from_csv_text(table_to_csv_text(table))
        assert back.rows[0][2] == ""
        assert back.rows[1][2] is None

    def test_load_with_explicit_schema(self):
        text = "i,f,s,b,d\n1,1.0,x,true,2016-01-01\n"
        table = load_csv(io.StringIO(text), schema())
        assert table.rows == [(1, 1.0, "x", True, "2016-01-01")]

    def test_header_mismatch_rejected(self):
        text = "x,y\n1,2\n"
        with pytest.raises(StorageError):
            load_csv(io.StringIO(text), schema())

    def test_empty_input_rejected(self):
        with pytest.raises(StorageError):
            load_csv(io.StringIO(""))

    def test_missing_type_suffix_rejected(self):
        with pytest.raises(StorageError):
            load_csv(io.StringIO("plain\n1\n"))

    def test_bad_arity_row_rejected(self):
        text = "i:int\n1,2\n"
        with pytest.raises(StorageError):
            load_csv(io.StringIO(text))

    def test_file_round_trip(self, tmp_path):
        table = Table(schema())
        table.insert((7, 2.5, "file", False, "2016-12-31"))
        path = tmp_path / "t.csv"
        dump_csv(table, path)
        assert load_csv(path).rows == table.rows

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-10**6, 10**6)),
                st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
                st.one_of(st.none(), st.text(max_size=20)),
                st.one_of(st.none(), st.booleans()),
                st.one_of(st.none(), st.just("2016-06-01")),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, rows):
        """dump -> load is the identity on arbitrary typed rows."""
        table = Table(schema())
        for row in rows:
            table.insert(row)
        back = table_from_csv_text(table_to_csv_text(table))
        assert back.rows == table.rows

    @pytest.mark.parametrize(
        "tricky", ['""', '"', '"x"', '""""', '"" ', "plain"]
    )
    def test_quote_shaped_strings_round_trip(self, tricky):
        """Regression: a literal string that looks like the quoted-empty
        sentinel (e.g. '""') must not decode to the empty string."""
        table = Table(schema())
        table.insert((1, None, tricky, None, None))
        back = table_from_csv_text(table_to_csv_text(table))
        assert back.rows == table.rows


class TestFloatSpecialsCodec:
    """Regressions for the shared storage codec (repro.storage.codec).

    The CSV, WAL, and mmap formats all encode values through this one
    module; these cases pin the float-special behaviour the serialization
    sweep fixed — NaN canonicalisation, inf round trips, and NULL vs NaN
    staying distinct at every boundary.
    """

    def test_encode_specials(self):
        assert encode_value(float("nan")) == "nan"
        assert encode_value(float("inf")) == "inf"
        assert encode_value(float("-inf")) == "-inf"
        assert encode_value(None) == ""

    def test_decode_nan_is_canonical(self):
        """Every decoded NaN is the ONE canonical object, so bucket keys
        built from round-tripped rows match by identity."""
        decoded = decode_value("nan", DataType.FLOAT)
        assert decoded is CANONICAL_NAN
        assert decode_value("NaN", DataType.FLOAT) is CANONICAL_NAN

    def test_decode_inf_round_trip(self):
        assert decode_value("inf", DataType.FLOAT) == math.inf
        assert decode_value("-inf", DataType.FLOAT) == -math.inf
        assert decode_value("", DataType.FLOAT) is None

    def test_is_nan_excludes_non_floats(self):
        assert is_nan(float("nan"))
        assert not is_nan(None)
        assert not is_nan("nan")
        assert not is_nan(1.0)
        assert not is_nan(True)

    def test_canonical_value_and_key(self):
        fresh = float("nan")
        assert fresh is not CANONICAL_NAN
        assert canonical_value(fresh) is CANONICAL_NAN
        assert canonical_value(2.5) == 2.5
        assert canonical_value(None) is None
        key = canonical_key(("k", fresh, None, 1.0))
        assert key[1] is CANONICAL_NAN
        # canonical keys from independently parsed NaNs compare equal
        # (tuple equality short-circuits on identity)
        assert key == canonical_key(("k", float("nan"), None, 1.0))

    def test_csv_round_trip_preserves_specials(self):
        """NaN/inf survive dump -> load, and the reloaded NaN is the
        canonical object — not a fresh unequal one."""
        table = Table(schema())
        table.insert((1, float("nan"), "a", None, None))
        table.insert((2, float("inf"), "b", None, None))
        table.insert((3, float("-inf"), "c", None, None))
        table.insert((4, None, "d", None, None))
        back = table_from_csv_text(table_to_csv_text(table))
        assert back.rows[0][1] is CANONICAL_NAN
        assert back.rows[1][1] == math.inf
        assert back.rows[2][1] == -math.inf
        assert back.rows[3][1] is None

    def test_null_never_conflated_with_nan(self):
        """3VL: NULL and NaN are different UNKNOWNs — the codec must not
        collapse one into the other in either direction."""
        assert encode_value(None) != encode_value(float("nan"))
        assert decode_value("", DataType.FLOAT) is None
        assert is_nan(decode_value("nan", DataType.FLOAT))

    @settings(max_examples=50, deadline=None)
    @given(
        value=st.one_of(
            st.none(),
            st.floats(width=64),  # includes NaN and both infinities
        )
    )
    def test_float_codec_property(self, value):
        """encode -> decode is the identity on every float (NaN modulo
        canonicalisation) and on NULL."""
        back = decode_value(encode_value(value), DataType.FLOAT)
        if value is None:
            assert back is None
        elif math.isnan(value):
            assert back is CANONICAL_NAN
        else:
            assert back == value
