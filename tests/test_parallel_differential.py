"""Cross-process differential suite: row vs columnar vs pooled.

The engine pool (``repro.engine.pool``) must be observationally
identical to the in-process executors: same answer rows in the same
order, same ``tuples_fetched`` accounting and the same per-operation
breakdown. This suite replays the seeded
random SPJA workload of ``test_fuzz_differential`` through **three**
executions side by side —

* ``row`` (in-process, tuple-at-a-time),
* ``columnar`` (in-process batches),
* ``pool`` (whole plans shipped to worker processes) —

including NULL-enriched instances, and asserts exact equality per
scenario. Construction-time validation of the engine options
(``BEASError`` for bad ``rows_per_batch``/``parallelism``) and the
mode-wiring surface (env var, serving overrides, async front end) are
covered at the bottom.
"""

from __future__ import annotations

import random

import pytest

from repro import BEAS
from repro.beas.result import ExecutionMode
from repro.bounded.plan import BoundedPlan
from repro.errors import BEASError

from tests.conftest import engine_run, example1_access_schema
from tests.test_columnar_differential import _inject_nulls
from tests.test_fuzz_differential import (
    random_example1_db,
    random_example1_query,
)

DIFFERENTIAL_SEEDS = 13
RANDOM_QUERIES_PER_SEED = 5
COVERED_QUERIES_PER_SEED = 3  # templates guaranteed to take the bounded path
QUERIES_PER_SEED = RANDOM_QUERIES_PER_SEED + COVERED_QUERIES_PER_SEED
_SCENARIOS = 0  # three-way comparisons performed


def _covered_queries(rng: random.Random) -> list[str]:
    """Three templates the A0 schema always covers (psi1/psi2/psi3), so
    every seed exercises the bounded pooled path — the random generator
    alone can land on conventional-only batches."""
    from tests.test_fuzz_differential import DATES, PNUMS, TYPES, REGIONS

    pnum, date = rng.choice(PNUMS), rng.choice(DATES)
    return [
        f"SELECT DISTINCT recnum, region FROM call "
        f"WHERE pnum = '{pnum}' AND date = '{date}'",
        f"SELECT pid FROM package WHERE pnum = '{pnum}' "
        f"AND year = {rng.choice([2015, 2016])}",
        f"SELECT DISTINCT call.recnum FROM call, business "
        f"WHERE business.type = '{rng.choice(TYPES)}' "
        f"AND business.region = '{rng.choice(REGIONS)}' "
        f"AND business.pnum = call.pnum AND call.date = '{date}'",
    ]


def _fetch_ops(metrics):
    return [
        (op.label, op.tuples_in, op.tuples_out)
        for op in metrics.operations
        if op.label.startswith("fetch[")
    ]


def _compare_three(row_beas, col_beas, pool_beas, sql: str) -> ExecutionMode:
    global _SCENARIOS
    row = engine_run(row_beas, sql)
    col = engine_run(col_beas, sql)
    pooled = engine_run(pool_beas, sql)
    runs = (row, col, pooled)

    # answers: mode, columns, and even the row order must agree exactly
    assert all(r.mode == row.mode for r in runs), sql
    assert all(r.columns == row.columns for r in runs), sql
    assert all(r.rows == row.rows for r in runs), sql

    # the §3 accounting: identical tuples fetched and
    # identical output cardinality in every placement
    fetched = row.metrics.tuples_fetched
    assert all(r.metrics.tuples_fetched == fetched for r in runs), sql
    assert all(r.metrics.rows_output == row.metrics.rows_output for r in runs), sql

    if row.mode is ExecutionMode.BOUNDED:
        # per-fetch operation breakdown: pooled executions report the
        # same fetch ops with the same input/output counts as columnar
        col_fetches = _fetch_ops(col.metrics)
        assert _fetch_ops(row.metrics) == col_fetches, sql
        assert _fetch_ops(pooled.metrics) == col_fetches, sql
        assert (
            pooled.metrics.intermediate_rows
            == col.metrics.intermediate_rows
            == row.metrics.intermediate_rows
        ), sql
        # every OperationCost label, tail operators included
        labels = [op.label for op in col.metrics.operations]
        assert [op.label for op in pooled.metrics.operations] == labels, sql
        # a plan a worker ran carries the pool surface in its metrics (a
        # set operation under a pool runs in-process, in batches)
        if isinstance(pool_beas.check(sql).plan, BoundedPlan):
            assert pooled.metrics.pool_workers == 2, sql
        assert pooled.metrics.rows_per_batch > 0, sql
    _SCENARIOS += 1
    return row.mode


@pytest.mark.parametrize("seed", range(DIFFERENTIAL_SEEDS))
def test_row_vs_columnar_vs_pooled_differential(seed: int):
    before = _SCENARIOS
    rng = random.Random(737_100 + seed)
    db = random_example1_db(rng)
    if seed % 2:
        _inject_nulls(db, rng)
    queries = [
        random_example1_query(rng)[0] for _ in range(RANDOM_QUERIES_PER_SEED)
    ] + _covered_queries(rng)
    rows_per_batch = rng.choice([1, 2, 3, 7])
    row_beas = BEAS(db, example1_access_schema(), executor="row", parallelism=1)
    col_beas = BEAS(
        db,
        example1_access_schema(),
        executor="columnar",
        rows_per_batch=rows_per_batch,
        parallelism=1,
    )
    pool_beas = BEAS(
        db,
        example1_access_schema(),
        executor="columnar",
        rows_per_batch=rows_per_batch,
        parallelism=2,
    )
    try:
        modes = [
            _compare_three(row_beas, col_beas, pool_beas, sql) for sql in queries
        ]
        # the covered templates guarantee bounded work every seed, and
        # the pool route must really have run on workers
        assert ExecutionMode.BOUNDED in modes
        pool_stats = pool_beas.pool_stats()
        assert pool_stats is not None
        assert pool_stats.plans_dispatched > 0
    finally:
        pool_beas.close()
    assert _SCENARIOS - before == QUERIES_PER_SEED


def test_differential_scenario_floor():
    """The acceptance bar: >= 100 seeded cross-process scenarios (each
    parametrized run above asserts its exact share)."""
    total = DIFFERENTIAL_SEEDS * QUERIES_PER_SEED
    assert total >= 100, f"configured for only {total} scenarios"


# --------------------------------------------------------------------------- #
# a join workload for the wiring tests
# --------------------------------------------------------------------------- #
def _join_workload():
    """A two-fetch plan whose second fetch sees a multi-chunk input."""
    from repro import (
        AccessConstraint,
        AccessSchema,
        Database,
        DatabaseSchema,
        DataType,
        TableSchema,
    )

    schema = DatabaseSchema(
        [
            TableSchema(
                "t",
                [
                    ("k", DataType.STRING),
                    ("g", DataType.STRING),
                    ("u", DataType.STRING),
                ],
                keys=[("u",)],
            ),
            TableSchema(
                "s",
                [("g", DataType.STRING), ("v", DataType.STRING)],
                keys=[("g", "v")],
            ),
        ]
    )
    db = Database(schema)
    for i in range(48):
        db.insert("t", ("k", f"g{i % 6}", f"u{i:04d}"))
    for i in range(6):
        for j in range(2):
            db.insert("s", (f"g{i}", f"v{i}{j}"))
    access = AccessSchema(
        [
            AccessConstraint("t", ["k"], ["g", "u"], 64, name="t_by_k"),
            AccessConstraint("s", ["g"], ["v"], 4, name="s_by_g"),
        ]
    )
    sql = (
        "SELECT t.u, s.v FROM t, s "
        "WHERE t.k = 'k' AND t.g = s.g ORDER BY t.u, s.v"
    )
    return db, access, sql


def test_row_default_with_pool_matches_row():
    """BEAS(executor="row", parallelism>=2): pooled execution upgrades to
    the columnar wire format but answers must match row mode exactly."""
    db, access, sql = _join_workload()
    row = engine_run(BEAS(db, access, executor="row", parallelism=1), sql)
    pooled = BEAS(db, access, executor="row", parallelism=2)
    try:
        result = engine_run(pooled, sql)
        assert result.rows == row.rows
        assert result.metrics.tuples_fetched == row.metrics.tuples_fetched
        assert result.metrics.pool_workers == 2
    finally:
        pooled.close()


# --------------------------------------------------------------------------- #
# construction-time validation (BEASError, satellite)
# --------------------------------------------------------------------------- #
class TestConstructionValidation:
    def _db(self):
        from repro import Database, DatabaseSchema, DataType, TableSchema

        return Database(
            DatabaseSchema([TableSchema("t", [("a", DataType.INT)])])
        )

    @pytest.mark.parametrize("bad", [0, -1, -4096])
    def test_rows_per_batch_must_be_positive(self, bad):
        with pytest.raises(BEASError, match="rows_per_batch"):
            BEAS(self._db(), rows_per_batch=bad)

    @pytest.mark.parametrize("bad", [2.5, "4096", True])
    def test_rows_per_batch_must_be_int(self, bad):
        with pytest.raises(BEASError, match="rows_per_batch"):
            BEAS(self._db(), rows_per_batch=bad)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_parallelism_must_be_positive(self, bad):
        with pytest.raises(BEASError, match="parallelism"):
            BEAS(self._db(), parallelism=bad)

    @pytest.mark.parametrize("bad", [1.5, "two", False])
    def test_parallelism_must_be_int(self, bad):
        with pytest.raises(BEASError, match="parallelism"):
            BEAS(self._db(), parallelism=bad)

    def test_bad_env_parallelism(self, monkeypatch):
        monkeypatch.setenv("BEAS_PARALLELISM", "many")
        with pytest.raises(BEASError, match="BEAS_PARALLELISM"):
            BEAS(self._db())

    def test_validation_happens_at_construction_not_execution(self):
        # the error surfaces from BEAS(...) itself, before any query
        with pytest.raises(BEASError):
            BEAS(self._db(), rows_per_batch=0, executor="row")

    def test_engine_pool_rejects_bad_worker_count(self):
        from repro import EnginePool

        with pytest.raises(BEASError):
            EnginePool(0)
        with pytest.raises(BEASError):
            EnginePool("four")


# --------------------------------------------------------------------------- #
# mode wiring: env var, serving layer, async front end
# --------------------------------------------------------------------------- #
class TestPoolWiring:
    def test_env_default_resolution(self, monkeypatch):
        db, access, _ = _join_workload()
        monkeypatch.delenv("BEAS_PARALLELISM", raising=False)
        assert BEAS(db, access).options.parallelism == 1
        monkeypatch.setenv("BEAS_PARALLELISM", "4")
        # the pool is lazy: resolving the count spawns nothing
        assert BEAS(db, access).options.parallelism == 4
        assert BEAS(db, access, parallelism=2).options.parallelism == 2

    def test_pool_is_lazy_and_close_is_idempotent(self):
        db, access, sql = _join_workload()
        beas = BEAS(db, access, parallelism=2)
        assert beas.pool is None  # nothing forked yet
        result = engine_run(beas, sql)
        assert beas.pool is not None
        assert result.metrics.pool_workers == 2
        beas.close()
        beas.close()
        # pooled execution transparently restarts after close
        again = engine_run(beas, sql)
        assert again.rows == result.rows
        beas.close()

    def test_serving_layer_reports_pool_stats(self):
        db, access, sql = _join_workload()
        beas = BEAS(db, access, parallelism=2)
        try:
            session = beas.session()
            result = session.run(sql, routing="static")
            assert result.metrics.pool_workers == 2
            stats = session.stats()
            assert stats.pool is not None
            assert stats.pool.peers == 2
            assert "engine pool" in stats.describe()
        finally:
            beas.close()

    def test_async_server_dispatches_through_the_pool(self):
        import asyncio
        from collections import Counter

        db, access, sql = _join_workload()
        baseline = engine_run(BEAS(db, access, parallelism=1), sql)
        beas = BEAS(db, access, parallelism=3)

        async def scenario():
            async with beas.session().serve_async(max_workers=3) as aserver:
                results = await asyncio.gather(
                    *(
                        aserver.execute(sql, use_result_cache=False)
                        for _ in range(6)
                    )
                )
                return results

        try:
            results = asyncio.run(scenario())
            for result in results:
                assert Counter(result.rows) == Counter(baseline.rows)
            stats = beas.pool_stats()
            assert stats is not None and stats.plans_dispatched > 0
        finally:
            beas.close()
