"""Row-vs-columnar differential suite (permanent regression guard).

The columnar executor must be observationally identical to the row
executor: same answer rows (in the same order — both modes iterate
fetch inputs, buckets, and tail operators identically), same
``tuples_fetched`` accounting, same per-fetch operation breakdown, and
the same ``dedup_keys`` semantics. This suite replays the seeded random
SPJA workload of ``test_fuzz_differential`` through both executors side
by side — including NULL-enriched instances — and separately pins down
the batch-boundary edge cases: empty inputs, result sets of exactly
``rows_per_batch`` and ``rows_per_batch ± 1`` rows, LIMIT cutting a
batch mid-way (with early stop), and DISTINCT / aggregates that must
carry state across batch boundaries.
"""

from __future__ import annotations

import random
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

from tests.conftest import engine_run, example1_access_schema
from tests.test_fuzz_differential import (
    DATES,
    PNUMS,
    RECNUMS,
    REGIONS,
    random_example1_db,
    random_example1_query,
)

# --------------------------------------------------------------------------- #
# the seeded differential sweep
# --------------------------------------------------------------------------- #
DIFFERENTIAL_SEEDS = 14
QUERIES_PER_SEED = 4
DEDUP_MODES = (False, True)
_SCENARIOS = 0  # row-vs-columnar comparisons performed


def _inject_nulls(db: Database, rng: random.Random) -> None:
    """Overwrite a few Y-attribute values with NULL (recnum/region on
    ``call``, pnum on ``business``) so the sweep exercises NULL gathers,
    NULL join keys, and NULL-aware selections in both modes."""
    call = db.table("call")
    for i in range(len(call.rows)):
        if rng.random() < 0.2:
            row = list(call.rows[i])
            row[rng.choice([2, 4])] = None  # recnum or region
            call.rows[i] = tuple(row)
    business = db.table("business")
    if business.rows and rng.random() < 0.5:
        row = list(business.rows[0])
        row[0] = None  # pnum: a NULL join key
        business.rows[0] = tuple(row)


def _compare_modes(row_beas: BEAS, col_beas: BEAS, sql: str) -> None:
    global _SCENARIOS
    row_result = engine_run(row_beas, sql)
    col_result = engine_run(col_beas, sql)
    assert row_result.mode == col_result.mode, sql
    assert row_result.columns == col_result.columns, sql
    # both modes enumerate keys, buckets, and tail operators in the same
    # order, so even the row *order* must agree exactly
    assert row_result.rows == col_result.rows, sql
    row_metrics, col_metrics = row_result.metrics, col_result.metrics
    assert row_metrics.tuples_fetched == col_metrics.tuples_fetched, sql
    assert row_metrics.rows_output == col_metrics.rows_output, sql
    if row_result.mode is ExecutionMode.BOUNDED:
        assert row_metrics.intermediate_rows == col_metrics.intermediate_rows, sql
        row_fetches = [
            (op.label, op.tuples_in, op.tuples_out)
            for op in row_metrics.operations
            if op.label.startswith("fetch[")
        ]
        col_fetches = [
            (op.label, op.tuples_in, op.tuples_out)
            for op in col_metrics.operations
            if op.label.startswith("fetch[")
        ]
        assert row_fetches == col_fetches, sql
        assert col_metrics.rows_per_batch > 0
        assert col_metrics.batches >= len(col_fetches)
        assert row_metrics.batches == 0  # the row executor never batches
    _SCENARIOS += 1


@pytest.mark.parametrize("seed", range(DIFFERENTIAL_SEEDS))
def test_row_vs_columnar_differential(seed: int):
    before = _SCENARIOS
    rng = random.Random(424_200 + seed)
    db = random_example1_db(rng)
    if seed % 2:
        _inject_nulls(db, rng)
    queries = [random_example1_query(rng)[0] for _ in range(QUERIES_PER_SEED)]
    for dedup in DEDUP_MODES:
        # parallelism pinned to 1: this suite isolates row vs columnar
        # (the pooled mode has its own three-way differential suite in
        # tests/test_parallel_differential.py), and a BEAS_PARALLELISM
        # CI leg must not silently turn the row executor into a pooled
        # columnar one here
        row_beas = BEAS(
            db,
            example1_access_schema(),
            dedup_keys=dedup,
            executor="row",
            parallelism=1,
        )
        col_beas = BEAS(
            db,
            example1_access_schema(),
            dedup_keys=dedup,
            executor="columnar",
            rows_per_batch=rng.choice([1, 2, 3, 7, 4096]),
            parallelism=1,
        )
        for sql in queries:
            _compare_modes(row_beas, col_beas, sql)
    assert _SCENARIOS - before == QUERIES_PER_SEED * len(DEDUP_MODES)


def test_differential_scenario_floor():
    """The acceptance bar: >= 100 seeded row-vs-columnar scenarios (each
    parametrized run above asserts its exact share)."""
    total = DIFFERENTIAL_SEEDS * QUERIES_PER_SEED * len(DEDUP_MODES)
    assert total >= 100, f"configured for only {total} scenarios"


# --------------------------------------------------------------------------- #
# batch-boundary edge cases (tiny rows_per_batch to make boundaries bite)
# --------------------------------------------------------------------------- #
BATCH = 8


def _batch_db(n_rows: int) -> Database:
    """One table whose single key ('k') fetches exactly ``n_rows`` rows;
    'u' is unique per row, 'g' cycles through 3 groups, 'n' is 0/1/2."""
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
                keys=[("u",)],  # exposed via Y => bag-exact plans, so
                # duplicate-sensitive aggregates stay covered
            )
        ]
    )
    db = Database(schema)
    for i in range(n_rows):
        db.insert("t", ("k", f"g{i % 3}", i % 3, f"u{i:05d}"))
    return db


def _batch_beas(db: Database, executor: str) -> BEAS:
    access = AccessSchema(
        [AccessConstraint("t", ["k"], ["g", "n", "u"], 4 * BATCH + 8, name="t_by_k")]
    )
    # parallelism pinned: these edges compare the two in-process modes
    return BEAS(
        db, access, executor=executor, rows_per_batch=BATCH, parallelism=1
    )


def _both(db: Database, sql: str):
    row = engine_run(_batch_beas(db, "row"), sql)
    col = engine_run(_batch_beas(db, "columnar"), sql)
    assert row.mode is ExecutionMode.BOUNDED
    assert col.mode is ExecutionMode.BOUNDED
    assert row.rows == col.rows, sql
    return row, col


class TestBatchBoundaries:
    def test_empty_table(self):
        db = _batch_db(0)
        row, col = _both(db, "SELECT DISTINCT u FROM t WHERE k = 'k'")
        assert col.rows == []
        assert col.metrics.tuples_fetched == 0

    @pytest.mark.parametrize("n_rows", [BATCH - 1, BATCH, BATCH + 1])
    def test_exact_batch_sizes(self, n_rows: int):
        """Result sets of exactly rows_per_batch and ± 1 rows."""
        db = _batch_db(n_rows)
        row, col = _both(db, "SELECT DISTINCT u FROM t WHERE k = 'k'")
        assert len(col.rows) == n_rows
        # one batch for the fetch's seed input + ceil(n/BATCH) tail batches
        expected_tail = (n_rows + BATCH - 1) // BATCH
        assert col.metrics.batches == 1 + expected_tail
        assert col.metrics.rows_per_batch == BATCH

    def test_limit_cuts_mid_batch_with_early_stop(self):
        """LIMIT inside the second of three batches: the third batch is
        never pulled, and the answer matches the row executor exactly."""
        db = _batch_db(3 * BATCH)
        limit = BATCH + 3  # cuts mid-way through batch 2
        row, col = _both(
            db, f"SELECT DISTINCT u FROM t WHERE k = 'k' LIMIT {limit}"
        )
        assert len(col.rows) == limit
        assert col.metrics.batches == 1 + 2  # fetch seed + 2 of 3 tail batches
        limit_ops = [
            op for op in col.metrics.operations if op.label == "limit"
        ]
        assert limit_ops and limit_ops[0].tuples_out == limit

    def test_limit_offset_spans_batches(self):
        db = _batch_db(3 * BATCH)
        row, col = _both(
            db,
            f"SELECT DISTINCT u FROM t WHERE k = 'k' "
            f"ORDER BY u LIMIT {BATCH} OFFSET {BATCH + 2}",
        )
        assert len(col.rows) == BATCH
        assert col.rows[0] == (f"u{BATCH + 2:05d}",)

    def test_distinct_across_batch_boundaries(self):
        """Duplicates recur in every batch ('g' cycles with period 3, so
        each batch re-sees earlier values): the seen-set must persist."""
        db = _batch_db(3 * BATCH)
        row, col = _both(db, "SELECT DISTINCT g FROM t WHERE k = 'k'")
        assert sorted(col.rows) == [("g0",), ("g1",), ("g2",)]

    def test_aggregate_across_batch_boundaries(self):
        db = _batch_db(3 * BATCH + 1)
        sql = (
            "SELECT g, COUNT(*) AS c, SUM(n) AS s, MIN(u) AS lo, MAX(u) AS hi "
            "FROM t WHERE k = 'k' GROUP BY g"
        )
        row, col = _both(db, sql)
        assert Counter(col.rows) == Counter(row.rows)
        # groups accumulate across all three-and-a-bit batches
        assert sum(r[1] for r in col.rows) == 3 * BATCH + 1

    def test_scalar_aggregate_empty_input_single_row(self):
        db = _batch_db(4)
        row, col = _both(db, "SELECT COUNT(*) FROM t WHERE k = 'missing'")
        assert col.rows == [(0,)]

    def test_order_by_spans_batches(self):
        db = _batch_db(2 * BATCH + 5)
        row, col = _both(
            db,
            "SELECT DISTINCT u FROM t WHERE k = 'k' ORDER BY u DESC",
        )
        assert col.rows[0] == (f"u{2 * BATCH + 4:05d}",)
        assert col.rows == sorted(row.rows, reverse=True)


# --------------------------------------------------------------------------- #
# mode wiring: BEAS per-call override, serving layer
# --------------------------------------------------------------------------- #
class TestModeWiring:
    def test_beas_per_call_override(self):
        db = _batch_db(2 * BATCH)
        beas = _batch_beas(db, "row")
        sql = "SELECT DISTINCT u FROM t WHERE k = 'k'"
        default_run = engine_run(beas, sql)
        override_run = engine_run(beas, sql, executor="columnar")
        assert default_run.rows == override_run.rows
        assert default_run.metrics.batches == 0
        assert override_run.metrics.batches > 0
        assert override_run.metrics.rows_per_batch == BATCH

    def test_serving_layer_selects_mode_per_query(self):
        db = _batch_db(2 * BATCH)
        server = _batch_beas(db, "row").session().server
        sql = "SELECT DISTINCT u FROM t WHERE k = 'k'"
        row_run = server.execute(sql, use_result_cache=False)
        col_run = server.execute(
            sql, use_result_cache=False, executor="columnar"
        )
        assert row_run.rows == col_run.rows
        assert row_run.metrics.batches == 0
        assert col_run.metrics.batches > 0
        # prepared handles take the same per-call override
        prepared = server.prepare(sql)
        prepared_col = prepared.execute(
            use_result_cache=False, executor="columnar"
        )
        assert prepared_col.rows == row_run.rows
        assert prepared_col.metrics.batches > 0

    def test_partial_plan_honours_per_call_override(self):
        """A partially covered query runs its bounded prefix in the
        per-call mode too (the optimizer must not bake in the default)."""
        schema = DatabaseSchema(
            [
                TableSchema(
                    "t",
                    [
                        ("k", DataType.STRING),
                        ("g", DataType.STRING),
                        ("u", DataType.STRING),
                    ],
                ),
                TableSchema("w", [("g", DataType.STRING), ("x", DataType.STRING)]),
            ]
        )
        db = Database(schema)
        for i in range(3 * BATCH):
            db.insert("t", ("k", f"g{i % 3}", f"u{i:03d}"))
        for i in range(3):
            db.insert("w", (f"g{i}", f"x{i}"))
        access = AccessSchema(
            [AccessConstraint("t", ["k"], ["g", "u"], 4 * BATCH, name="t_by_k")]
        )
        beas = BEAS(
            db, access, executor="row", rows_per_batch=BATCH, parallelism=1
        )
        sql = (
            "SELECT DISTINCT t.u, w.x FROM t, w "
            "WHERE t.k = 'k' AND t.g = w.g"
        )
        row_run = engine_run(beas, sql)
        col_run = engine_run(beas, sql, executor="columnar")
        assert row_run.mode is ExecutionMode.PARTIAL
        assert col_run.mode is ExecutionMode.PARTIAL
        assert sorted(row_run.rows) == sorted(col_run.rows)
        assert row_run.metrics.batches == 0
        assert col_run.metrics.batches > 0  # the prefix ran columnar

    def test_env_default_resolution(self, monkeypatch):
        from repro.engine.columnar import resolve_executor_mode

        monkeypatch.delenv("BEAS_EXECUTOR", raising=False)
        assert resolve_executor_mode(None) == "row"
        monkeypatch.setenv("BEAS_EXECUTOR", "columnar")
        assert resolve_executor_mode(None) == "columnar"
        assert resolve_executor_mode("row") == "row"  # explicit wins
        from repro.errors import BEASError

        # construction-time configuration error, like the other engine
        # options (previously an ExecutionError deep in the executor)
        with pytest.raises(BEASError):
            resolve_executor_mode("simd")
