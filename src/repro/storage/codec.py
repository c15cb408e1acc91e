"""The canonical value codec shared by every storage boundary.

Exactly one module encodes values to text and back — CSV import/export,
the WAL's text records and the store manifest's table fingerprints all
call :func:`encode_value` / :func:`decode_value`. A WAL record holds a
batch's stored tuples as they are (marshal, never pickle); text cells
are used only for a batch marshal refuses.  The beaslint
``storage-codec`` rule enforces this: ad-hoc ``float(...)`` / ``repr(...)``
value coding outside this module is flagged, so the formats cannot
drift apart (the PR 4 CSV round-trip and the pickled snapshot wire each
grew their own silent-corruption bug before this module existed).

Text format (identical to the historical CSV cell encoding, extended
with explicit float specials):

* NULL is the empty string; the empty *string value* is ``""``.
* A literal string that itself looks like a quoted cell is wrapped in
  one extra quote pair, undone symmetrically on decode.
* Booleans are ``true`` / ``false``.
* Floats encode via ``repr`` (shortest round-tripping form); the IEEE
  specials encode as ``nan`` / ``inf`` / ``-inf`` and decode back to
  the *canonical* special objects below.

NaN treatment (the 3VL decision, documented once, here)
-------------------------------------------------------
IEEE-754 and Python agree that ``nan == nan`` is **false** — and the
whole reproduction compares values with Python ``==`` (the brute-force
oracle, the executors, bucket dict keys).  We keep those semantics:

* An equality *lookup* with a NaN component never matches —
  ``AccessIndex.fetch`` returns ``[]`` for NaN-containing keys, exactly
  as it does for NULL (the predicate is UNKNOWN-or-false, never TRUE).
* For *storage accounting* (bucket membership, support counts, dedup
  keys) every NaN is canonicalised to the single shared
  :data:`CANONICAL_NAN` object.  Python's tuple/dict machinery short-
  circuits on identity, so rows carrying the canonical NaN hash and
  match deterministically — insert/delete maintenance and round-tripped
  data stay exact instead of silently diverging whenever a *distinct*
  NaN object (``float("nan")`` parses a fresh one every time) fails to
  equal the one already in a bucket.

Decoding a FLOAT ``nan`` cell therefore returns :data:`CANONICAL_NAN`,
and :func:`canonical_value` maps any NaN seen on an ingest path to it.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable, Sequence

from repro.catalog.types import DataType, coerce_value
from repro.errors import StorageError

#: the single NaN object used for storage accounting (see module docstring)
CANONICAL_NAN: float = float("nan")

NULL_TEXT = ""
QUOTED_EMPTY = '""'


def is_nan(value: Any) -> bool:
    """True for any float NaN (bool is excluded by not being a float)."""
    return isinstance(value, float) and math.isnan(value)


def canonical_value(value: Any) -> Any:
    """Map any NaN to :data:`CANONICAL_NAN`; everything else passes through."""
    if isinstance(value, float) and math.isnan(value):
        return CANONICAL_NAN
    return value


def canonical_key(values: Iterable[Any]) -> tuple:
    """Tuple of :func:`canonical_value` — bucket/dedup key form."""
    return tuple(
        CANONICAL_NAN if (isinstance(v, float) and math.isnan(v)) else v
        for v in values
    )


def nan_free(rows: Sequence[Sequence[Any]], positions: Sequence[int]) -> bool:
    """True when no cell of ``rows`` at ``positions`` is a NaN, decided by
    C-level passes over those columns alone.

    False when one is — and also when a pass cannot tell (a cell that is
    no number, a row too short to have the cell): the caller then takes
    the per-value :func:`canonical_key`, which is right for any row.
    """
    try:
        for position in positions:
            column = map(itemgetter(position), rows)
            # filter(None, ...) drops NULL (and zeros): none of them is NaN
            if any(map(math.isnan, filter(None, column))):
                return False
    except (TypeError, IndexError, OverflowError):
        return False
    return True


def encode_value(value: Any) -> str:
    """Encode one value to its canonical text cell."""
    if value is None:
        return NULL_TEXT
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, str):
        value = str.__str__(value)  # a subclass instance: its characters
        if value == "":
            return QUOTED_EMPTY
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            # a literal "..."-shaped string would be indistinguishable
            # from the empty-string sentinel (or a previously wrapped
            # value): wrap in one more quote pair, undone on decode
            return f'"{value}"'
        return value
    if value == "":
        return QUOTED_EMPTY
    return str(value)


def decode_value(text: str, dtype: DataType) -> Any:
    """Decode one text cell back to a typed value.

    The inverse of :func:`encode_value` given the column's declared
    type; FLOAT specials come back as ``inf`` / ``-inf`` /
    :data:`CANONICAL_NAN`.
    """
    if text == NULL_TEXT:
        return None
    if text == QUOTED_EMPTY:
        return "" if dtype is DataType.STRING else coerce_value("", dtype)
    if len(text) >= 4 and text[0] == '"' and text[-1] == '"':
        return coerce_value(text[1:-1], dtype)
    value = coerce_value(text, dtype)
    if isinstance(value, float) and math.isnan(value):
        return CANONICAL_NAN
    return value


def encode_row(row: Sequence[Any], dtypes: Sequence[DataType]) -> list[str]:
    """Encode a full row (``dtypes`` is positional, from the table schema)."""
    if len(row) != len(dtypes):
        raise StorageError(
            f"cannot encode row of arity {len(row)} with {len(dtypes)} dtypes"
        )
    return [encode_value(value) for value in row]


def decode_row(cells: Sequence[str], dtypes: Sequence[DataType]) -> tuple:
    """Decode a full row; inverse of :func:`encode_row`."""
    if len(cells) != len(dtypes):
        raise StorageError(
            f"cannot decode row of arity {len(cells)} with {len(dtypes)} dtypes"
        )
    return tuple(decode_value(cell, dtype) for cell, dtype in zip(cells, dtypes))


# --------------------------------------------------------------------------- #
# batches: column-wise type checks
# --------------------------------------------------------------------------- #
_NULL = type(None)

#: per dtype, the classes whose instances :func:`is_compatible` accepts
#: at a glance (an instance of a subclass passes it too, but not these)
EXACT_TYPES: dict[DataType, frozenset[type]] = {
    DataType.INT: frozenset({int, _NULL}),
    DataType.FLOAT: frozenset({float, int, _NULL}),
    DataType.STRING: frozenset({str, _NULL}),
    DataType.BOOL: frozenset({bool, _NULL}),
    DataType.DATE: frozenset({str, _NULL}),
}


def exactly_typed(
    columns: Sequence[tuple], exact: Sequence[frozenset[type]]
) -> bool:
    """True when every value of each column has one of that column's
    ``exact`` classes — one C-level pass per column."""
    kinds = map(map, repeat(type), columns)
    return all(map(frozenset.issuperset, exact, kinds))
