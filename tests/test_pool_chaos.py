"""Chaos suite for the engine pool: answers are never wrong, only slower.

Injects the failure modes a long-running multiprocess deployment will
eventually hit — a worker dying mid-task, a worker whose warm catalog
snapshot has silently gone stale, every worker busy (pool exhaustion),
and a pool shut down under live traffic — and asserts that each one
degrades to a correct answer (equal to the in-process oracle) plus the
right recovery bookkeeping (respawns, stale retries, fallbacks).

The one *semantic* failure — a fetch exceeding its deduced §3 bound
because the data no longer conforms — must NOT be swallowed by the
fallback machinery: the worker relays it and the master re-raises,
exactly as the in-process executor would.
"""

from __future__ import annotations

import functools

import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    EnginePool,
    TableSchema,
)
from repro.beas.result import ExecutionMode
from repro.engine.router import PlanRunner
from repro.errors import ExecutionError

from tests.conftest import engine_run


# --------------------------------------------------------------------------- #
# fixtures: a two-fetch workload and a deterministic one-worker pool
# --------------------------------------------------------------------------- #
def make_workload():
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
    for i in range(24):
        db.insert("t", ("k", f"g{i % 4}", f"u{i:04d}"))
    for i in range(4):
        db.insert("s", (f"g{i}", f"v{i}"))
    access = AccessSchema(
        [
            AccessConstraint("t", ["k"], ["g", "u"], 40, name="t_by_k"),
            AccessConstraint("s", ["g"], ["v"], 2, name="s_by_g"),
        ]
    )
    sql = (
        "SELECT t.u, s.v FROM t, s "
        "WHERE t.k = 'k' AND t.g = s.g ORDER BY t.u"
    )
    return db, access, sql


@pytest.fixture
def workload():
    return make_workload()


def pooled_run(beas: BEAS, pool: EnginePool):
    """``plan -> result`` down the ``pool`` route over an explicit
    (usually 1-worker) pool, so chaos hooks deterministically hit the
    worker that will serve the next task."""
    runner = PlanRunner(beas.catalog, rows_per_batch=4, pool=lambda: pool)
    return functools.partial(runner.run_route, "pool")


def expected_result(beas: BEAS, sql: str):
    return beas.runner.run_route("columnar", beas.check(sql).plan)


# --------------------------------------------------------------------------- #
# worker death mid-batch
# --------------------------------------------------------------------------- #
def test_worker_death_mid_task_falls_back_and_respawns(workload):
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    with EnginePool(1) as pool:
        run = pooled_run(beas, pool)
        # arm the only worker: it exits the process mid-way through the
        # NEXT compute task — after the master committed to dispatching
        pool.debug("die_on_next_task")
        result = run(plan)
        assert result.rows == oracle.rows
        assert result.metrics.tuples_fetched == oracle.metrics.tuples_fetched
        # the outcome is attributed as a serial run: the router must
        # never learn the pool's costs from it
        assert result.metrics.pool_fallbacks == 1
        stats = pool.stats()
        assert stats.worker_deaths == 1
        assert stats.respawns == 1
        assert stats.alive == 1  # a fresh worker replaced the casualty

        # the respawned worker serves the same plan remotely again
        # (fresh snapshot: the replacement starts empty)
        again = run(plan)
        assert again.rows == oracle.rows
        after = pool.stats()
        assert after.plans_dispatched > 0
        assert after.snapshots_sent >= 2


def test_repeated_worker_deaths_never_corrupt_answers(workload):
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    with EnginePool(2) as pool:
        run = pooled_run(beas, pool)
        for round_number in range(4):
            if round_number % 2 == 0:
                pool.debug("die_on_next_task")
            result = run(plan)
            assert result.rows == oracle.rows, f"round {round_number}"
        stats = pool.stats()
        assert stats.worker_deaths >= 2
        assert stats.alive == 2


# --------------------------------------------------------------------------- #
# stale snapshots
# --------------------------------------------------------------------------- #
def test_silently_stale_worker_snapshot_is_detected_and_retried(workload):
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    with EnginePool(1) as pool:
        run = pooled_run(beas, pool)
        assert run(plan).rows == oracle.rows  # snapshot warm
        # corrupt the WORKER's installed snapshot key without the master
        # noticing: the master's bookkeeping now claims the worker is
        # fresh while it is not — the per-task key check must catch it
        pool.debug("set_snapshot_key", ("bogus", "generation"))
        result = run(plan)
        assert result.rows == oracle.rows
        # the stale snapshot was re-shipped and the task retried on the
        # worker — a genuinely pooled run, not a fallback
        assert result.metrics.pool_fallbacks == 0
        stats = pool.stats()
        assert stats.stale_retries >= 1
        assert stats.snapshots_sent >= 2  # the snapshot was re-sent


def test_maintenance_refreshes_worker_snapshots(workload):
    """The version-vector snapshot key: after an insert, pooled answers
    must reflect the new data — a worker can never serve the old rows."""
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=2)
    try:
        first = engine_run(beas, sql)
        assert first.mode is ExecutionMode.BOUNDED
        baseline_rows = len(first.rows)
        beas.insert("t", [("k", "g0", "u9998"), ("k", "g1", "u9999")])
        fresh_oracle = engine_run(BEAS(db, access, parallelism=1), sql)
        second = engine_run(beas, sql)
        assert len(second.rows) == baseline_rows + 2
        assert second.rows == fresh_oracle.rows
        stats = beas.pool_stats()
        assert stats is not None and stats.snapshots_sent >= 2
    finally:
        beas.close()


# --------------------------------------------------------------------------- #
# pool exhaustion
# --------------------------------------------------------------------------- #
def test_pool_exhaustion_falls_back_in_process(workload):
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    with EnginePool(1, acquire_timeout=0.01) as pool:
        run = pooled_run(beas, pool)
        busy = pool.acquire()  # hold the only worker hostage
        assert busy is not None
        try:
            result = run(plan)
            assert result.rows == oracle.rows
            assert result.metrics.pool_batches == 0  # everything ran local
            assert result.metrics.pool_fallbacks >= 1  # attributed as serial
            stats = pool.stats()
            assert stats.exhaustion_fallbacks >= 1
            assert stats.plans_dispatched == 0
        finally:
            pool.release(busy)
        # once the worker is back, dispatch resumes — and the clean
        # pooled run carries no fallback attribution
        resumed = run(plan)
        assert resumed.rows == oracle.rows
        assert resumed.metrics.pool_fallbacks == 0
        assert pool.stats().plans_dispatched == 1


def test_closed_pool_falls_back(workload):
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    pool = EnginePool(1)
    run = pooled_run(beas, pool)
    pool.close()
    result = run(plan)
    assert result.rows == oracle.rows
    assert result.metrics.pool_batches == 0
    # a closed pool means no pooled dispatch was ever *attempted*, so
    # nothing to attribute: this is an ordinary serial execution
    assert result.metrics.pool_fallbacks == 0


# --------------------------------------------------------------------------- #
# semantic errors must propagate, not fall back
# --------------------------------------------------------------------------- #
def test_bound_exceeded_propagates_from_workers():
    """Non-conforming data (index built with validate=False) blows the
    deduced fetch bound; the pooled run must raise the same
    ExecutionError the in-process run does — never silently fall back
    into a 'successful' answer."""
    schema = DatabaseSchema(
        [
            TableSchema(
                "t",
                [("k", DataType.STRING), ("u", DataType.STRING)],
                keys=[("u",)],
            )
        ]
    )
    db = Database(schema)
    for i in range(9):  # 9 distinct Y-values under one key, against N=2
        db.insert("t", ("k", f"u{i}"))
    beas = BEAS(db, parallelism=1)
    # registered without conformance validation: the deduced bound (N=2)
    # is stale relative to the actual data, so every fetch overruns it
    beas.register(
        AccessConstraint("t", ["k"], ["u"], 2, name="t_by_k"), validate=False
    )
    sql = "SELECT DISTINCT u FROM t WHERE k = 'k'"
    plan = beas.check(sql).plan
    with pytest.raises(ExecutionError, match="exceeding its deduced bound"):
        beas.runner.run_route("columnar", plan)
    with EnginePool(1) as pool:
        run = pooled_run(beas, pool)
        with pytest.raises(ExecutionError, match="exceeding its deduced bound"):
            run(plan)


# --------------------------------------------------------------------------- #
# pool plumbing
# --------------------------------------------------------------------------- #
def test_debug_ping_and_repr():
    with EnginePool(1) as pool:
        reply = pool.debug("ping")
        assert reply[0] == "pong" and isinstance(reply[1], int)
    assert pool.closed


def test_serving_layer_survives_worker_chaos(workload):
    """End to end: a prepared query keeps answering correctly through the
    sharded serving layer while its pool workers are killed."""
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=2)
    oracle = engine_run(BEAS(db, access, parallelism=1), sql)
    try:
        server = beas.session().server
        first = server.execute(sql, use_result_cache=False, routing="static")
        assert first.rows == oracle.rows
        pool = beas.pool
        assert pool is not None
        pool.debug("die_on_next_task")
        for _ in range(3):
            result = server.execute(sql, use_result_cache=False, routing="static")
            assert result.rows == oracle.rows
        stats = beas.pool_stats()
        assert stats is not None and stats.alive == 2
    finally:
        beas.close()


# --------------------------------------------------------------------------- #
# shared-memory snapshot wire (mmap storage engine)
# --------------------------------------------------------------------------- #
def test_empty_bucket_index_installs_under_full_snapshot_key(tmp_path):
    """Regression: an access index over a relation with ZERO rows still
    ships to pool workers under the full (schema generation, version
    vector) snapshot key — the covered query answers [] through the
    pool, never 'unsupported', and the install never degenerates into a
    stale-retry loop."""
    schema = DatabaseSchema(
        [
            TableSchema(
                "e",
                [("k", DataType.STRING), ("u", DataType.STRING)],
                keys=[("u",)],
            )
        ]
    )
    db = Database(schema)  # deliberately: no rows at all
    access = AccessSchema(
        [AccessConstraint("e", ["k"], ["u"], 5, name="e_by_k")]
    )
    beas = BEAS(
        db, access, parallelism=2, storage="mmap", storage_dir=tmp_path
    )
    try:
        result = engine_run(beas, "SELECT DISTINCT u FROM e WHERE k = 'x'")
        assert result.mode is ExecutionMode.BOUNDED
        assert result.rows == []
        stats = beas.pool_stats()
        assert stats is not None
        assert stats.shm_attaches >= 1
        assert stats.stale_retries == 0
    finally:
        beas.close()


def test_shm_exporter_decline_falls_back_to_pickle_wire(tmp_path, workload):
    """When the shared-memory exporter declines (shm exhausted, block
    raced away), the SAME _ensure_snapshot call must fall back to the
    pickle wire — counted in shm_fallbacks, answers unchanged."""
    db, access, sql = workload
    beas = BEAS(
        db, access, parallelism=2, storage="mmap", storage_dir=tmp_path
    )
    try:
        oracle = engine_run(BEAS(db, access, parallelism=1), sql)
        first = engine_run(beas, sql)
        assert first.rows == oracle.rows
        pool = beas.pool
        assert pool is not None
        assert pool.stats().shm_attaches >= 1
        pool._snapshot_exporter = lambda key, payload_fn: None
        # maintenance bumps the version vector, forcing a re-ship that
        # can no longer ride the shm wire
        beas.insert("t", [("k", "g0", "u9998")])
        fresh_oracle = engine_run(BEAS(db, access, parallelism=1), sql)
        second = engine_run(beas, sql)
        assert second.rows == fresh_oracle.rows
        stats = beas.pool_stats()
        assert stats is not None
        assert stats.shm_fallbacks >= 1
        assert stats.snapshot_bytes_shipped > 0
    finally:
        beas.close()


def test_router_never_trains_pooled_models_on_fallbacks(workload):
    """A pooled execution that fell back in-process (ExecutionMetrics
    .pool_fallbacks > 0) is skipped by ExecutorRouter.observe — the
    pooled cost model must not learn from serial latencies."""
    from repro.engine.metrics import ExecutionMetrics
    from repro.engine.router import ExecutorRouter, routing_features

    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    plan = beas.check(sql).plan
    features = routing_features(
        plan, {}, rows_per_batch=4, parallelism=2
    )
    router = ExecutorRouter()
    fallback = ExecutionMetrics(seconds=0.5, pool_fallbacks=1)
    clean = ExecutionMetrics(seconds=0.5)
    router.observe("fp", "pool", features, fallback)
    assert router.stats().observations == 0
    assert router.stats().fallback_skips == 1
    # serial routes train regardless (a serial run IS a serial cost),
    # and clean pooled runs train normally
    router.observe("fp", "row", features, fallback)
    router.observe("fp", "pool", features, clean)
    assert router.stats().observations == 2
    assert router.stats().fallback_skips == 1
