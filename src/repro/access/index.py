"""The modified hash index backing an access constraint.

Paper §3 (AS Catalog, Discovery): *"its index ... is a modified hash index
such that (a) it takes attributes X as the key; and (b) each key value ā
points to a bucket D_Y(X = ā), the set of at most N distinct Y-values in D
corresponding to ā."*

Buckets here additionally store a support count per distinct Y-value (how
many base rows project to it), which is what makes **incremental
maintenance** exact under deletions: a Y-value leaves the bucket only when
its last supporting row is deleted (paper §3, Maintenance module).

It is the only code that groups a relation by X: the conformance check
and discovery profiling read the counters of an unvalidated build, and
the AS Catalog's statistics those of its live indices.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.access.constraint import AccessConstraint
from repro.catalog.types import DataType
from repro.errors import AccessSchemaError, ConformanceError
from repro.storage.codec import canonical_key, is_nan, nan_free
from repro.storage.heap import bulk_build
from repro.storage.table import Table

Key = tuple
YValue = tuple
Row = Sequence[Any]


def _picker(positions: Sequence[int]) -> Callable[[Sequence[Row]], Iterable[tuple]]:
    """``rows -> tuple(row[i] for i in positions)`` per row, as one
    C-level pass over the batch; a single position still yields
    1-tuples (``itemgetter(i)`` alone would yield the bare cell)."""
    if not positions:
        return lambda rows: [()] * len(rows)
    if len(positions) == 1:
        cell = itemgetter(positions[0])
        return lambda rows: zip(map(cell, rows))
    cells = itemgetter(*positions)
    return lambda rows: map(cells, rows)


class AccessIndex:
    """Hash index from X-values to buckets of distinct Y-values."""

    def __init__(self, constraint: AccessConstraint, table: Table | None = None):
        self.constraint = constraint
        self._buckets: dict[Key, dict[YValue, int]] = {}
        self._built_from: str | None = None
        self._lay_out((), (), ())
        if table is not None:
            self.build(table)

    def _lay_out(
        self,
        x_positions: Sequence[int],
        y_positions: Sequence[int],
        floats: Sequence[int],
    ) -> None:
        """Where a base row holds X and Y, and which of those cells are
        FLOAT columns. This is all that crosses a process boundary; the
        pickers compiled from it are rebuilt on first use."""
        self._x_positions = tuple(x_positions)
        self._y_positions = tuple(y_positions)
        self._floats = tuple(floats)
        self._x_float = not set(self._floats).isdisjoint(self._x_positions)
        self._pickers: Optional[tuple[Callable, Callable]] = None

    # ------------------------------------------------------------------ #
    # construction and maintenance
    # ------------------------------------------------------------------ #
    def build(self, table: Table, *, validate: bool = True) -> "AccessIndex":
        """(Re)build the index from ``table``.

        With ``validate=True`` (default) a bucket growing past ``N``
        aborts the build with :class:`~repro.errors.ConformanceError` —
        the dataset does not conform to the constraint. The buckets are
        built with the cycle collector paused and then frozen
        (:mod:`repro.storage.heap`).
        """
        self.constraint.validate_against(table.schema)
        x_positions = table.schema.positions(self.constraint.x)
        y_positions = table.schema.positions(self.constraint.y)
        dtypes = table.schema.dtypes
        self._lay_out(
            x_positions,
            y_positions,
            [i for i in x_positions + y_positions if dtypes[i] is DataType.FLOAT],
        )
        with bulk_build:
            self._buckets = {}
            self._built_from = table.schema.name
            self.insert_rows(table.rows, validate=validate)
        return self

    def _project(self, rows: Sequence[Row]) -> tuple[list[Key], list[YValue]]:
        """The batch's X- and Y-values, NaN components canonicalised to
        one shared object so that bucket membership and support counts
        stay deterministic (dict identity short-circuit); see
        repro.storage.codec for the 3VL decision. Equality *lookups*
        still never match NaN (fetch)."""
        if self._built_from is None:
            raise AccessSchemaError("index has not been built yet")
        pickers = self._pickers
        if pickers is None:
            pickers = self._pickers = (
                _picker(self._x_positions),
                _picker(self._y_positions),
            )
        keys, y_values = list(pickers[0](rows)), list(pickers[1](rows))
        if not nan_free(rows, self._floats):
            keys = list(map(canonical_key, keys))
            y_values = list(map(canonical_key, y_values))
        return keys, y_values

    def add_rows(
        self,
        rows: Sequence[Row],
        *,
        validate: bool = True,
        changed: Optional[list[Key]] = None,
    ) -> Optional[int]:
        """Account for a batch of inserted base rows.

        Returns ``None``, or — with ``validate`` — the position of the
        first row that would take a bucket past ``N``; the index is then
        as it was before the batch.

        ``changed`` gains the key of every bucket that gained a distinct
        Y-value: the only keys whose :meth:`fetch` result the batch
        changed (a support count going 1 -> 2 changes none). A refused
        batch adds nothing to it.
        """
        keys, y_values = self._project(rows)
        buckets = self._buckets
        bound = self.constraint.n if validate else sys.maxsize
        gained: list[Key] = []
        gain = gained.append
        for position, key in enumerate(keys):
            y_value = y_values[position]
            bucket = buckets.get(key)
            if bucket is None:
                if bound:
                    buckets[key] = {y_value: 1}
                    gain(key)
                    continue
            elif y_value in bucket:
                bucket[y_value] += 1
                continue
            elif len(bucket) < bound:
                bucket[y_value] = 1
                gain(key)
                continue
            self._remove(keys[:position], y_values[:position])
            return position
        if changed is not None:
            changed.extend(gained)
        return None

    def remove_rows(
        self, rows: Sequence[Row], *, changed: Optional[list[Key]] = None
    ) -> None:
        """Account for a batch of deleted base rows; ``changed`` gains
        the key of every bucket that lost a distinct Y-value (its last
        supporting row went)."""
        self._remove(*self._project(rows), changed)

    def _remove(
        self,
        keys: list[Key],
        y_values: list[YValue],
        changed: Optional[list[Key]] = None,
    ) -> None:
        buckets = self._buckets
        for key, y_value in zip(keys, y_values):
            try:
                bucket = buckets[key]
                count = bucket[y_value] - 1
            except KeyError:
                raise AccessSchemaError(
                    f"cannot delete: row not present in index {self.constraint.name}"
                ) from None
            if count:
                bucket[y_value] = count
            else:
                del bucket[y_value]
                if not bucket:
                    del buckets[key]
                if changed is not None:
                    changed.append(key)

    def violation(self, row: Row) -> ConformanceError:
        """What :meth:`add_rows` refusing ``row`` means."""
        ((key,), _) = self._project((row,))
        return ConformanceError(
            f"constraint {self.constraint.name} violated: X-value {key!r} "
            f"has more than N={self.constraint.n} distinct Y-values"
        )

    def insert_rows(self, rows: Sequence[Row], *, validate: bool = True) -> None:
        """:meth:`add_rows`, raising the violation it reports."""
        refused = self.add_rows(rows, validate=validate)
        if refused is not None:
            raise self.violation(rows[refused])

    # ------------------------------------------------------------------ #
    # lookups (the fetch primitive)
    # ------------------------------------------------------------------ #
    def fetch(self, key: Key) -> list[YValue]:
        """Return the bucket ``D_Y(X = key)``: at most N distinct Y-values.

        A key containing NULL never matches: ``fetch`` implements the
        equality ``X = key``, and under SQL's three-valued logic an
        equality against NULL is UNKNOWN, not TRUE — even when base rows
        with NULL X-values exist (their buckets are maintained for
        storage accounting but are unreachable by equality lookup).
        NaN components behave the same way: IEEE equality on NaN is
        never TRUE, so a NaN-bearing key matches nothing even though
        NaN rows keep canonicalised buckets for accounting.
        """
        if key.__class__ is not tuple:
            key = tuple(key)
        # only a FLOAT part of X can be a NaN
        if None in key or (self._x_float and any(map(is_nan, key))):
            return []
        bucket = self._buckets.get(key)
        if bucket is None:
            return []
        return list(bucket)

    def __contains__(self, key: Key) -> bool:
        """Storage introspection (canonicalised), *not* equality lookup."""
        return canonical_key(key) in self._buckets

    def __getstate__(self) -> dict:
        # positions ship, the pickers compiled from them do not
        return {**self.__dict__, "_pickers": None}

    def __setstate__(self, state: dict) -> None:
        # NaN canonicalisation does not survive the pickle wire — every
        # unpickled NaN is a fresh object — so buckets are re-canonicalised
        # on arrival (the engine pool ships indices to workers pickled)
        buckets = state.get("_buckets")
        if buckets:
            state = dict(state)
            state["_buckets"] = {
                canonical_key(key): {
                    canonical_key(y_value): count
                    for y_value, count in bucket.items()
                }
                for key, bucket in buckets.items()
            }
        self.__dict__.update(state)

    def keys(self) -> Iterator[Key]:
        return iter(self._buckets)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def key_count(self) -> int:
        return len(self._buckets)

    @property
    def entry_count(self) -> int:
        """Total distinct (X, Y) pairs stored — the index's logical size."""
        return sum(map(len, self._buckets.values()))

    @property
    def max_bucket_size(self) -> int:
        return max(map(len, self._buckets.values()), default=0)

    def bucket_sizes(self) -> Iterator[tuple[Key, int]]:
        """``(key, distinct Y-values in its bucket)`` per stored key
        (canonical, NULL and NaN keys included), in the order the keys
        entered the index: first-seen row order for a fresh build."""
        return ((key, len(bucket)) for key, bucket in self._buckets.items())

    def largest_bucket(self, keys: Iterable[Key]) -> int:
        """The most distinct Y-values any bucket among ``keys`` (canonical
        keys, as :meth:`add_rows` reports them) holds; 0 for none."""
        buckets = self._buckets
        return max((len(buckets.get(key, ())) for key in keys), default=0)

    def storage_cells(self, entry_count: Optional[int] = None) -> int:
        """Storage estimate in value cells (keys + entries), used by the
        discovery module's storage budget; ``entry_count`` spares the
        pass over the buckets when the caller has counted them."""
        if entry_count is None:
            entry_count = self.entry_count
        key_width = len(self.constraint.x)
        y_width = len(self.constraint.y)
        return self.key_count * key_width + entry_count * y_width

    def snapshot(self) -> dict[Key, dict[YValue, int]]:
        """Deep copy of the buckets (tests compare incremental vs rebuild)."""
        return {key: dict(bucket) for key, bucket in self._buckets.items()}

    def __repr__(self) -> str:
        return (
            f"AccessIndex({self.constraint.name}: {self.key_count} keys, "
            f"{self.entry_count} entries)"
        )
