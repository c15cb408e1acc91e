"""NULLs flowing through the columnar tail operators across batches.

The batch-aware tail (``ColumnarTail``) keeps cross-batch state
for aggregates, DISTINCT, and ORDER BY; NULLs are where that state is
easiest to get wrong (SQL aggregates skip NULL inputs, COUNT(*) does
not, AVG divides by the non-NULL count, DISTINCT treats NULL as one
value, ascending sorts put NULLs first). Every case here runs with a
tiny ``rows_per_batch`` so NULLs cross batch boundaries, and each
result is differential against the row executor — plus a pooled pass
at the end, since pickled NULL columns must round-trip identically.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.beas.result import ExecutionMode

from tests.conftest import engine_run

BATCH = 4


def null_db() -> Database:
    """28 rows under one key; 'g' has a NULL group, 'n' has NULL measure
    values recurring in every batch, 'u' is the (unique) table key."""
    schema = DatabaseSchema(
        [
            TableSchema(
                "t",
                [
                    ("k", DataType.STRING),
                    ("g", DataType.STRING),
                    ("n", DataType.INT),
                    ("u", DataType.STRING),
                ],
                keys=[("u",)],
            )
        ]
    )
    db = Database(schema)
    for i in range(28):
        group = None if i % 4 == 3 else f"g{i % 3}"
        measure = None if i % 3 == 2 else i
        db.insert("t", ("k", group, measure, f"u{i:04d}"))
    return db


def beas_for(db: Database, executor: str, **kwargs) -> BEAS:
    access = AccessSchema(
        [AccessConstraint("t", ["k"], ["g", "n", "u"], 64, name="t_by_k")]
    )
    kwargs.setdefault("parallelism", 1)
    return BEAS(db, access, executor=executor, rows_per_batch=BATCH, **kwargs)


def both(sql: str):
    db = null_db()
    row = engine_run(beas_for(db, "row"), sql)
    col = engine_run(beas_for(db, "columnar"), sql)
    assert row.mode is ExecutionMode.BOUNDED, sql
    assert col.mode is ExecutionMode.BOUNDED, sql
    assert row.rows == col.rows, sql
    assert row.metrics.tuples_fetched == col.metrics.tuples_fetched, sql
    assert col.metrics.batches > len(row.rows) // BATCH  # really batched
    return row, col


class TestNullAggregatesAcrossBatches:
    def test_count_star_vs_count_column(self):
        row, col = both(
            "SELECT COUNT(*) AS all_rows, COUNT(n) AS non_null "
            "FROM t WHERE k = 'k'"
        )
        assert col.rows == [(28, 19)]  # COUNT(n) skips the 9 NULLs

    def test_sum_avg_skip_nulls(self):
        row, col = both(
            "SELECT SUM(n) AS s, AVG(n) AS a FROM t WHERE k = 'k'"
        )
        total = sum(i for i in range(28) if i % 3 != 2)
        assert col.rows[0][0] == total
        assert col.rows[0][1] == pytest.approx(total / 19)

    def test_min_max_ignore_nulls(self):
        row, col = both("SELECT MIN(n) AS lo, MAX(n) AS hi FROM t WHERE k = 'k'")
        assert col.rows == [(0, 27)]

    def test_all_null_group_aggregates_to_null(self):
        # group g IS NULL: every 4th row; its 'n' values include non-NULLs,
        # so restrict to a predicate that leaves only NULL measures
        row, col = both(
            "SELECT SUM(n) AS s, AVG(n) AS a, MIN(n) AS lo "
            "FROM t WHERE k = 'k' AND n IS NULL"
        )
        assert col.rows == [(None, None, None)]

    def test_group_by_null_group_key(self):
        """The NULL group collects across batches like any other group."""
        row, col = both(
            "SELECT g, COUNT(*) AS c, COUNT(n) AS cn, SUM(n) AS s "
            "FROM t WHERE k = 'k' GROUP BY g"
        )
        assert Counter(col.rows) == Counter(row.rows)
        null_groups = [r for r in col.rows if r[0] is None]
        assert len(null_groups) == 1
        assert null_groups[0][1] == 7  # rows 3,7,11,...,27

    def test_count_distinct_with_nulls(self):
        row, col = both(
            "SELECT COUNT(DISTINCT g) AS dg, COUNT(DISTINCT n) AS dn "
            "FROM t WHERE k = 'k'"
        )
        # COUNT(DISTINCT x) ignores NULLs: 3 groups, 19 distinct measures
        assert col.rows == [(3, 19)]

    def test_having_over_null_bearing_aggregate(self):
        row, col = both(
            "SELECT g, SUM(n) AS s FROM t WHERE k = 'k' "
            "GROUP BY g HAVING COUNT(n) > 4"
        )
        assert Counter(col.rows) == Counter(row.rows)


class TestNullDistinctAndOrderAcrossBatches:
    def test_distinct_folds_nulls_to_one_row(self):
        row, col = both("SELECT DISTINCT g FROM t WHERE k = 'k'")
        assert sum(1 for r in col.rows if r[0] is None) == 1
        assert sorted(r[0] for r in col.rows if r[0] is not None) == [
            "g0",
            "g1",
            "g2",
        ]

    def test_distinct_pairs_with_null_components(self):
        row, col = both("SELECT DISTINCT g, n FROM t WHERE k = 'k'")
        assert len(col.rows) == len(set(col.rows))

    def test_order_by_nulls_first_ascending(self):
        row, col = both(
            "SELECT DISTINCT n FROM t WHERE k = 'k' ORDER BY n"
        )
        assert col.rows[0] == (None,)
        rest = [r[0] for r in col.rows[1:]]
        assert rest == sorted(rest)

    def test_order_by_nulls_last_descending(self):
        row, col = both(
            "SELECT DISTINCT n FROM t WHERE k = 'k' ORDER BY n DESC"
        )
        assert col.rows[-1] == (None,)

    def test_order_by_null_group_then_limit_cuts_mid_batch(self):
        row, col = both(
            "SELECT u, g FROM t WHERE k = 'k' "
            f"ORDER BY g, u LIMIT {BATCH + 2}"
        )
        assert len(col.rows) == BATCH + 2
        # ascending: the NULL-g rows sort first
        assert col.rows[0][1] is None

    def test_null_selection_vector_interaction(self):
        """A filter that drops NULLs (3VL) before the batched tail."""
        row, col = both(
            "SELECT g, COUNT(*) AS c FROM t WHERE k = 'k' AND n >= 0 "
            "GROUP BY g ORDER BY g"
        )
        assert Counter(col.rows) == Counter(row.rows)
        assert sum(r[1] for r in col.rows) == 19  # NULL n never passes >=


def test_null_tail_matches_under_pooled_execution():
    """The pickled wire format round-trips NULL columns bit-for-bit: a
    pooled run over the NULL-heavy instance equals the row executor."""
    db = null_db()
    sql = (
        "SELECT g, COUNT(*) AS c, COUNT(n) AS cn, SUM(n) AS s, MIN(n) AS lo "
        "FROM t WHERE k = 'k' GROUP BY g ORDER BY g"
    )
    oracle = engine_run(beas_for(db, "row"), sql)
    pooled = beas_for(db, "columnar", parallelism=2)
    try:
        result = engine_run(pooled, sql)
        assert result.rows == oracle.rows
        assert result.metrics.tuples_fetched == oracle.metrics.tuples_fetched
    finally:
        pooled.close()
