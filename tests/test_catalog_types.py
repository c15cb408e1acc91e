"""Unit tests for repro.catalog.types."""

import pytest

from repro.catalog.types import DataType, coerce_value, is_compatible
from repro.errors import TypeMismatchError


class TestCoerceInt:
    def test_int_passthrough(self):
        assert coerce_value(42, DataType.INT) == 42

    def test_string_digits(self):
        assert coerce_value("123", DataType.INT) == 123

    def test_negative_string(self):
        assert coerce_value("-7", DataType.INT) == -7

    def test_whole_float(self):
        assert coerce_value(3.0, DataType.INT) == 3

    def test_fractional_float_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(3.5, DataType.INT)

    def test_garbage_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("abc", DataType.INT)

    def test_bool_coerces_to_int(self):
        assert coerce_value(True, DataType.INT) == 1

    def test_none_passes_through(self):
        assert coerce_value(None, DataType.INT) is None


class TestCoerceFloat:
    def test_float_passthrough(self):
        assert coerce_value(2.5, DataType.FLOAT) == 2.5

    def test_int_widens(self):
        assert coerce_value(2, DataType.FLOAT) == 2.0

    def test_string_parses(self):
        assert coerce_value(" 3.25 ", DataType.FLOAT) == 3.25

    def test_garbage_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("x.y", DataType.FLOAT)


class TestCoerceString:
    def test_passthrough(self):
        assert coerce_value("hi", DataType.STRING) == "hi"

    def test_int_stringified(self):
        assert coerce_value(5, DataType.STRING) == "5"


class TestCoerceBool:
    @pytest.mark.parametrize("text", ["true", "T", "1", "yes", "YES"])
    def test_truthy_literals(self, text):
        assert coerce_value(text, DataType.BOOL) is True

    @pytest.mark.parametrize("text", ["false", "f", "0", "no"])
    def test_falsy_literals(self, text):
        assert coerce_value(text, DataType.BOOL) is False

    def test_int_one(self):
        assert coerce_value(1, DataType.BOOL) is True

    def test_garbage_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("maybe", DataType.BOOL)


class TestCoerceDate:
    def test_normalises_padding(self):
        assert coerce_value("2016-6-1", DataType.DATE) == "2016-06-01"

    def test_valid_date(self):
        assert coerce_value("2016-06-15", DataType.DATE) == "2016-06-15"

    def test_rejects_month_13(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("2016-13-01", DataType.DATE)

    def test_rejects_non_date(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("June 1", DataType.DATE)

    def test_rejects_non_string(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(20160601, DataType.DATE)


class TestIsCompatible:
    def test_none_always_compatible(self):
        for dtype in DataType:
            assert is_compatible(None, dtype)

    def test_bool_is_not_int(self):
        assert not is_compatible(True, DataType.INT)

    def test_int_is_float_compatible(self):
        assert is_compatible(3, DataType.FLOAT)

    def test_string_not_int(self):
        assert not is_compatible("3", DataType.INT)

    def test_date_requires_iso(self):
        assert is_compatible("2016-06-01", DataType.DATE)
        assert not is_compatible("06/01/2016", DataType.DATE)


class TestInferType:
    """Which column types admit a Python value: the types admission
    infers a value may be stored as."""

    @staticmethod
    def admitting(value) -> set[DataType]:
        return {dtype for dtype in DataType if is_compatible(value, dtype)}

    def test_bool_before_int(self):
        assert self.admitting(True) == {DataType.BOOL}

    def test_int(self):
        assert self.admitting(7) == {DataType.INT, DataType.FLOAT}

    def test_float(self):
        assert self.admitting(7.5) == {DataType.FLOAT}

    def test_date_string(self):
        assert self.admitting("2016-06-01") == {DataType.DATE, DataType.STRING}

    def test_plain_string(self):
        assert self.admitting("hello") == {DataType.STRING}
