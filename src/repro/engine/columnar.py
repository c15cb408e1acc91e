"""Columnar (vectorised) execution support.

Following the MonetDB/X100 batch-processing lineage, the columnar mode
replaces row-tuple intermediates with one Python list per attribute plus
a *selection vector* of live row positions. Operators then move work out
of per-row tuple construction and into per-column passes:

* selections only shrink the selection vector — no data is copied;
* fetches gather index postings for a whole key batch and materialise
  the output column by column (no per-row tuple concatenation);
* the tail operators (aggregate, sort, project, distinct, limit) consume
  the final intermediate in batches of ``rows_per_batch`` rows with
  cross-batch accumulators (see ``engine.physical.ColumnarTail``).

Semantics are identical to the row executor by construction: predicate
and expression fallbacks compile through the *same*
``engine.expressions`` scalar compiler (three-valued logic, error
behaviour, float accumulation order), and the fast paths below are
restricted to shapes whose column-wise evaluation is trivially
equivalent. The row-vs-columnar differential suite
(``tests/test_columnar_differential.py``) locks this in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro import config
from repro.config import DEFAULT_ROWS_PER_BATCH, EXECUTOR_MODES
from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.normalize import Attribute
from repro.engine.expressions import (
    _COMPARATORS,
    compile_expression,
    compile_predicate,
)

def resolve_executor_mode(executor: Optional[str]) -> str:
    """Resolve an executor mode: explicit argument, else the
    ``BEAS_EXECUTOR`` environment variable (the CI columnar matrix leg),
    else row mode. Unknown modes raise
    :class:`~repro.errors.BEASError` at construction time (like the
    other engine options) instead of failing deep in the executor."""
    mode = executor if executor is not None else config.env_executor()
    return config.validate_executor(mode or "row")


def resolve_rows_per_batch(rows_per_batch: Optional[int]) -> int:
    """Resolve the batch size: explicit argument, else the
    ``BEAS_ROWS_PER_BATCH`` environment variable, else the default.

    Rejects non-integer or non-positive sizes with
    :class:`~repro.errors.BEASError` at construction time, before any
    query runs into them.
    """
    if rows_per_batch is None:
        env = config.env_rows_per_batch()
        return DEFAULT_ROWS_PER_BATCH if env is None else env
    return config.validate_rows_per_batch(rows_per_batch)


# --------------------------------------------------------------------------- #
# the columnar intermediate
# --------------------------------------------------------------------------- #
@dataclass
class ColumnarIntermediate:
    """A materialised intermediate in columnar layout.

    ``columns[k][i]`` is the value of attribute ``labels[k]`` in physical
    row ``i``; ``count`` is the physical row count (needed because a
    zero-width intermediate — the bounded pipeline's seed row — still has
    a length); ``sel`` lists the *live* physical positions in row order,
    or ``None`` when every position is live.
    """

    labels: list[object]
    columns: list[list]
    count: int
    sel: Optional[list[int]] = None
    _layout: Optional[dict[object, int]] = field(default=None, repr=False)

    @property
    def layout(self) -> dict[object, int]:
        if self._layout is None:
            self._layout = {label: i for i, label in enumerate(self.labels)}
        return self._layout

    @property
    def live(self) -> Sequence[int]:
        """The live physical positions, in row order."""
        return range(self.count) if self.sel is None else self.sel

    @property
    def live_count(self) -> int:
        return self.count if self.sel is None else len(self.sel)

    # ------------------------------------------------------------------ #
    @classmethod
    def seed(cls) -> "ColumnarIntermediate":
        """The bounded pipeline's seed: one zero-width row."""
        return cls(labels=[], columns=[], count=1)

    @classmethod
    def from_rows(
        cls, labels: list[object], rows: Sequence[tuple]
    ) -> "ColumnarIntermediate":
        if labels:
            columns = [list(column) for column in zip(*rows)]
            if not columns:  # no rows at all
                columns = [[] for _ in labels]
        else:
            columns = []
        return cls(labels=list(labels), columns=columns, count=len(rows))

    def to_rows(self) -> list[tuple]:
        """Materialise the live rows as tuples (row-executor currency)."""
        if not self.columns:
            return [()] * self.live_count
        if self.sel is None:
            return list(zip(*self.columns))
        columns = self.columns
        return [tuple(column[i] for column in columns) for i in self.sel]

    def iter_batches(self, rows_per_batch: int) -> Iterator[list[int]]:
        """Yield the live positions in chunks of ``rows_per_batch``."""
        live = self.live
        for start in range(0, len(live), rows_per_batch):
            yield list(live[start : start + rows_per_batch])


def gather(column: list, indices: Iterable[int]) -> list:
    return [column[i] for i in indices]


# --------------------------------------------------------------------------- #
# the fetch-chunk kernel (the columnar fetch, one input batch at a time)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FetchChunkSpec:
    """Resolved fetch-key layout: each slot is a position in the
    intermediate's column list. Built by ``bounded.skeleton._KeyPlan``."""

    parts_len: int
    column_slots: tuple  # per key part: slot or None (constant part)
    group_value_lists: tuple  # enumerated constants per group
    group_positions: tuple  # key positions each group fills
    x_new: tuple  # key positions appended as new X columns
    y_new: tuple  # Y positions appended as new Y columns
    y_existing: tuple  # (y position, slot) pairs that must match
    track_gather: bool  # replicate existing columns via a gather list

    def keys_at(self, columns: Sequence[list], index: int):
        """Yield the fully resolved key tuples for one input row; yields
        nothing when any key part — column-sourced or constant — is NULL
        (SQL three-valued logic: an equality against NULL is UNKNOWN)."""
        for combo in self._const_combos():
            key = [None] * self.parts_len
            for group_index, positions in enumerate(self.group_positions):
                for position in positions:
                    key[position] = combo[group_index]
            valid = True
            for i, slot in enumerate(self.column_slots):
                if slot is not None:
                    value = columns[slot][index]
                    if value is None:
                        valid = False  # SQL: NULL never joins
                        break
                    key[i] = value
            if valid:
                yield tuple(key)

    def _const_combos(self):
        if not self.group_value_lists:
            return ((),)
        return (
            combo
            for combo in itertools.product(*self.group_value_lists)
            if None not in combo
        )


@dataclass
class FetchChunkResult:
    """One chunk's fetch output, position-relative to the kernel input."""

    gather: list  # input index per output row (when track_gather)
    x_columns: list  # new X columns (chunk-local)
    y_columns: list  # new Y columns (chunk-local)
    out_count: int
    fetched: int  # tuples fetched by this chunk (keys new to the cache)


def run_fetch_chunk(
    fetch: Callable[[tuple], list],
    spec: FetchChunkSpec,
    columns: Sequence[list],
    indices: Sequence[int],
    cache: Optional[dict],
    presented: list,
) -> FetchChunkResult:
    """Run one fetch chunk: resolve each input row's keys, gather the
    index postings, filter against existing Y columns, and emit the new
    columns chunk-locally.

    ``cache`` (``dedup_keys`` mode) is the execution's shared key cache:
    ``fetched`` then counts only keys *new to the cache*, matching the
    row executor's accounting. ``presented`` gains every key handed to
    ``fetch`` — the execution's read set, the row executor's exactly.
    """
    fetched = 0
    gather: list = []
    x_columns: list[list] = [[] for _ in spec.x_new]
    y_columns: list[list] = [[] for _ in spec.y_new]
    out_count = 0
    y_existing = spec.y_existing
    track_gather = spec.track_gather
    present = presented.append

    for i in indices:
        for key in spec.keys_at(columns, i):
            if cache is not None:
                bucket = cache.get(key)
                if bucket is None:
                    present(key)
                    bucket = cache[key] = fetch(key)
                    fetched += len(bucket)
            else:
                present(key)
                bucket = fetch(key)
                fetched += len(bucket)
            if not bucket:
                continue
            if y_existing:
                bucket = [
                    y_value
                    for y_value in bucket
                    # beaslint: ok(null-guard) - the same attribute of the same tuple occurrence, fetched a second time: an identity check, not an SQL predicate, so NULL matches NULL exactly as in the row executor
                    if all(y_value[j] == columns[slot][i] for j, slot in y_existing)
                ]
                if not bucket:
                    continue
            matches = len(bucket)
            out_count += matches
            if track_gather:
                gather.extend([i] * matches)
            for column, j in zip(x_columns, spec.x_new):
                column.extend([key[j]] * matches)
            for column, j in zip(y_columns, spec.y_new):
                column.extend([y_value[j] for y_value in bucket])

    return FetchChunkResult(
        gather=gather,
        x_columns=x_columns,
        y_columns=y_columns,
        out_count=out_count,
        fetched=fetched,
    )


# --------------------------------------------------------------------------- #
# columnar expression evaluation
# --------------------------------------------------------------------------- #
ColumnarValues = Callable[[list, Sequence[int]], list]
"""``(columns, indices) -> one value per index`` for one expression."""


def compile_columnar_values(
    expr: ast.Expression,
    layout: Mapping[object, int],
    aggregate_values: Optional[Mapping[ast.FunctionCall, int]] = None,
) -> ColumnarValues:
    """Compile ``expr`` to a per-batch evaluator under ``layout``.

    Plain column references and literals are gathered directly; every
    other shape falls back to the scalar compiler over materialised row
    tuples, so semantics (3VL, error behaviour) match the row executor
    exactly.
    """
    if (
        aggregate_values
        and isinstance(expr, ast.FunctionCall)
        and expr.is_aggregate
    ):
        position = aggregate_values.get(expr)
        if position is None:
            raise ExecutionError(f"aggregate {expr!r} was not computed")
        return lambda columns, indices: gather(columns[position], indices)
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda columns, indices: [value] * len(indices)
    if isinstance(expr, ast.ColumnRef):
        label = Attribute(expr.table, expr.name) if expr.table else expr.name
        try:
            position = layout[label]
        except KeyError:
            raise ExecutionError(
                f"column {label} not present in row layout"
            ) from None
        return lambda columns, indices: gather(columns[position], indices)
    evaluator = compile_expression(expr, layout, aggregate_values)
    return lambda columns, indices: [
        evaluator(tuple(column[i] for column in columns)) for i in indices
    ]


# --------------------------------------------------------------------------- #
# columnar predicate compilation (filters over the selection vector)
# --------------------------------------------------------------------------- #
ColumnarFilter = Callable[[list, Sequence[int]], list]
"""``(columns, indices) -> surviving indices`` for one conjunct."""


def _column_position(
    expr: ast.Expression, layout: Mapping[object, int]
) -> Optional[int]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    label = Attribute(expr.table, expr.name) if expr.table else expr.name
    return layout.get(label)


def _compile_conjunct(
    expr: ast.Expression, layout: Mapping[object, int]
) -> Optional[ColumnarFilter]:
    """A vectorised filter for one conjunct, or None when unsupported.

    Only shapes whose column-wise evaluation is trivially equivalent to
    the scalar compiler are handled; SQL's three-valued logic is
    preserved because a filter keeps a row only when the predicate is
    exactly TRUE — any NULL operand yields UNKNOWN and drops the row.
    """
    if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARATORS:
        compare = _COMPARATORS[expr.op]
        left_pos = _column_position(expr.left, layout)
        right_pos = _column_position(expr.right, layout)
        if left_pos is not None and isinstance(expr.right, ast.Literal):
            constant = expr.right.value
            if constant is None:  # always UNKNOWN
                return lambda columns, indices: []

            def filter_col_const(columns: list, indices: Sequence[int]) -> list:
                column = columns[left_pos]
                try:
                    return [
                        i
                        for i in indices
                        if column[i] is not None and compare(column[i], constant)
                    ]
                except TypeError:
                    raise ExecutionError(
                        f"cannot compare with {expr.op}: incompatible types"
                    ) from None

            return filter_col_const
        if right_pos is not None and isinstance(expr.left, ast.Literal):
            constant = expr.left.value
            if constant is None:
                return lambda columns, indices: []

            def filter_const_col(columns: list, indices: Sequence[int]) -> list:
                column = columns[right_pos]
                try:
                    return [
                        i
                        for i in indices
                        if column[i] is not None and compare(constant, column[i])
                    ]
                except TypeError:
                    raise ExecutionError(
                        f"cannot compare with {expr.op}: incompatible types"
                    ) from None

            return filter_const_col
        if left_pos is not None and right_pos is not None:

            def filter_col_col(columns: list, indices: Sequence[int]) -> list:
                a = columns[left_pos]
                b = columns[right_pos]
                try:
                    return [
                        i
                        for i in indices
                        if a[i] is not None
                        and b[i] is not None
                        and compare(a[i], b[i])
                    ]
                except TypeError:
                    raise ExecutionError(
                        f"cannot compare with {expr.op}: incompatible types"
                    ) from None

            return filter_col_col
        return None

    if isinstance(expr, ast.InList):
        position = _column_position(expr.operand, layout)
        if position is None or not all(
            isinstance(item, ast.Literal) for item in expr.items
        ):
            return None
        values = {item.value for item in expr.items if item.value is not None}
        has_null = any(item.value is None for item in expr.items)
        if not expr.negated:

            def filter_in(columns: list, indices: Sequence[int]) -> list:
                column = columns[position]
                return [
                    i
                    for i in indices
                    if column[i] is not None and column[i] in values
                ]

            return filter_in

        def filter_not_in(columns: list, indices: Sequence[int]) -> list:
            # NOT IN with a NULL member is never TRUE (three-valued logic)
            if has_null:
                return []
            column = columns[position]
            return [
                i
                for i in indices
                if column[i] is not None and column[i] not in values
            ]

        return filter_not_in

    if isinstance(expr, ast.Between):
        position = _column_position(expr.operand, layout)
        if (
            position is None
            or not isinstance(expr.low, ast.Literal)
            or not isinstance(expr.high, ast.Literal)
        ):
            return None
        low, high = expr.low.value, expr.high.value
        if low is None or high is None:
            return lambda columns, indices: []
        negated = expr.negated

        def filter_between(columns: list, indices: Sequence[int]) -> list:
            column = columns[position]
            if negated:
                return [
                    i
                    for i in indices
                    if column[i] is not None and not (low <= column[i] <= high)
                ]
            return [
                i
                for i in indices
                if column[i] is not None and low <= column[i] <= high
            ]

        return filter_between

    if isinstance(expr, ast.IsNull):
        position = _column_position(expr.operand, layout)
        if position is None:
            return None
        if expr.negated:

            def filter_not_null(columns: list, indices: Sequence[int]) -> list:
                column = columns[position]
                return [i for i in indices if column[i] is not None]

            return filter_not_null

        def filter_null(columns: list, indices: Sequence[int]) -> list:
            column = columns[position]
            return [i for i in indices if column[i] is None]

        return filter_null

    return None


def compile_columnar_predicate(
    expr: ast.Expression, layout: Mapping[object, int]
) -> ColumnarFilter:
    """Compile a residual predicate to a selection-vector filter.

    The top-level AND chain is split into conjuncts applied sequentially
    (each narrows the selection vector, so later conjuncts touch fewer
    rows). Conjuncts outside the vectorised fragment fall back to the
    scalar compiler over materialised row tuples — same semantics, row
    cost only for those rows still live when the conjunct runs.
    """
    conjuncts: list[ast.Expression] = []

    def flatten(node: ast.Expression) -> None:
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            flatten(node.left)
            flatten(node.right)
        else:
            conjuncts.append(node)

    flatten(expr)

    filters: list[ColumnarFilter] = []
    for conjunct in conjuncts:
        vectorised = _compile_conjunct(conjunct, layout)
        if vectorised is not None:
            filters.append(vectorised)
            continue
        predicate = compile_predicate(conjunct, layout)

        def fallback(
            columns: list,
            indices: Sequence[int],
            predicate: Callable[[tuple], bool] = predicate,
        ) -> list:
            return [
                i
                for i in indices
                if predicate(tuple(column[i] for column in columns))
            ]

        filters.append(fallback)

    # NOTE: splitting ``a AND b`` into sequential filters is exact under
    # 3VL for *filtering*: a row passes the conjunction iff every
    # conjunct is TRUE, regardless of UNKNOWN short-circuit order.
    def apply(columns: list, indices: Sequence[int]) -> list:
        live = list(indices)
        for conjunct_filter in filters:
            if not live:
                break
            live = conjunct_filter(columns, live)
        return live

    return apply
