"""Column data types and value coercion.

The engine stores values as plain Python objects. Each column declares a
:class:`DataType`; :func:`coerce_value` converts raw input (for example CSV
strings) to the declared type, and :func:`is_compatible` validates already
typed values. Dates are stored as ISO ``YYYY-MM-DD`` strings, which keeps
comparisons lexicographic and hashing cheap.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Any

from repro.errors import TypeMismatchError


class DataType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    DATE = "date"  # ISO 'YYYY-MM-DD' string

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


_TRUE_LITERALS = {"true", "t", "1", "yes"}
_FALSE_LITERALS = {"false", "f", "0", "no"}


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_LITERALS:
            return True
        if lowered in _FALSE_LITERALS:
            return False
    raise TypeMismatchError(f"cannot interpret {value!r} as BOOL")


def _coerce_date(value: Any) -> str:
    if isinstance(value, str):
        text = value.strip()
        parts = text.split("-")
        if len(parts) == 3 and all(p.isdigit() for p in parts):
            year, month, day = (int(p) for p in parts)
            if 1 <= month <= 12 and 1 <= day <= 31:
                return f"{year:04d}-{month:02d}-{day:02d}"
    raise TypeMismatchError(f"cannot interpret {value!r} as DATE (want 'YYYY-MM-DD')")


def int_text_bits() -> float:
    """The bit length up to which every int has a decimal text: one of
    at most ``sys.get_int_max_str_digits()`` digits, the only kind the
    WAL's text cells or a CSV can write (unlimited when that is 0)."""
    limit = sys.get_int_max_str_digits()
    return limit * math.log2(10) if limit else math.inf


def _has_text(value: int) -> bool:
    return value.bit_length() <= int_text_bits() or abs(value) < 10 ** sys.get_int_max_str_digits()


def shown(value: Any) -> str:
    """``repr(value)`` for a message; an int with no text by its size."""
    if isinstance(value, int) and not _has_text(value):
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Convert ``value`` to the Python representation of ``dtype``.

    ``None`` is passed through unchanged (SQL NULL). Raises
    :class:`~repro.errors.TypeMismatchError` when the conversion is not
    meaningful (e.g. ``"abc"`` to INT).
    """
    if value is None:
        return None
    try:
        if dtype is DataType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int) and _has_text(value):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
                return int(value.strip())
            raise TypeMismatchError(f"cannot interpret {shown(value)} as INT")
        if dtype is DataType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
            raise TypeMismatchError(f"cannot interpret {value!r} as FLOAT")
        if dtype is DataType.STRING:
            if isinstance(value, str):
                return value
            return str(value)
        if dtype is DataType.BOOL:
            return _coerce_bool(value)
        if dtype is DataType.DATE:
            return _coerce_date(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise TypeMismatchError(f"cannot interpret {shown(value)} as {dtype.name}") from exc
    raise TypeMismatchError(f"unsupported data type {dtype!r}")  # pragma: no cover


def is_compatible(value: Any, dtype: DataType) -> bool:
    """Return True when ``value`` already has the representation of ``dtype``."""
    if value is None:
        return True
    if dtype is DataType.INT:
        # an int with no decimal text could not be logged, so is no INT
        return isinstance(value, int) and not isinstance(value, bool) and _has_text(value)
    if dtype is DataType.FLOAT:
        if isinstance(value, float):
            return True
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        try:
            # an int past the float range is no FLOAT: its text would
            # decode as ``inf``, a different row after a restart
            float(value)
        except OverflowError:
            return False
        return True
    if dtype is DataType.STRING:
        return isinstance(value, str)
    if dtype is DataType.BOOL:
        return isinstance(value, bool)
    if dtype is DataType.DATE:
        if not isinstance(value, str):
            return False
        try:
            _coerce_date(value)
        except TypeMismatchError:
            return False
        return True
    return False  # pragma: no cover

