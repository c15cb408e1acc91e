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

import contextlib
import functools
import itertools
import types

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
from repro.distributed.fleet import ReplicaFleet
from repro.distributed.peerset import RESPAWN_BUDGET
from repro.engine.router import PlanRunner
from repro.errors import BEASError, ExecutionError

from tests.conftest import engine_run

_PORTS = itertools.count(9000, 16)


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


@contextlib.contextmanager
def remote_route(beas: BEAS, transport: str):
    """``(run, peers)`` over either transport: a one-worker pool on a
    pipe, or a two-replica fleet on sockets whose every replica takes a
    chaos hook sent through ``peers.debug``."""
    if transport == "pool":
        with EnginePool(1) as pool:
            yield pooled_run(beas, pool), pool
        return
    with ReplicaFleet(beas.catalog, replicas=2, port_base=next(_PORTS)) as fleet:
        runner = PlanRunner(beas.catalog, rows_per_batch=4, fleet=lambda: fleet)
        every_replica = types.SimpleNamespace(
            debug=lambda *hook: [fleet.debug(*hook, replica_id=i) for i in range(2)],
            stats=fleet.stats,
        )
        yield functools.partial(runner.run_route, "fleet"), every_replica


def served_remotely(transport: str, result) -> bool:
    if transport == "pool":
        return result.metrics.pool_fallbacks == 0
    return result.metrics.replica_id >= 0


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
        assert stats.failovers == 1
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
        assert stats.failovers >= 2
        assert stats.alive == 2


def test_crash_looping_worker_stops_respawning_at_its_budget(workload):
    """A worker slot that keeps dying is restarted RESPAWN_BUDGET times,
    as a fleet replica is, then serves nothing: its plans run
    in-process and the pool forks no more."""
    db, access, sql = workload
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    with EnginePool(1) as pool:
        run = pooled_run(beas, pool)
        for _ in range(RESPAWN_BUDGET + 1):
            # the process is gone before it can reply: that is success
            assert pool.debug("die") == ("ok",)
        stats = pool.stats()
        assert (stats.respawns, stats.alive) == (RESPAWN_BUDGET, 0)
        result = run(plan)
        assert result.rows == oracle.rows
        assert result.metrics.pool_fallbacks == 1
        assert pool.stats().respawns == RESPAWN_BUDGET
        with pytest.raises(BEASError, match="no live idle pool peer"):
            pool.debug("ping")


# --------------------------------------------------------------------------- #
# stale snapshots
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", ["pool", "fleet"])
def test_silently_stale_worker_snapshot_is_detected_and_retried(workload, transport):
    db, access, _ = workload
    # one constraint: no fleet replica co-locates the join's two
    sql = "SELECT u, g FROM t WHERE k = 'k' ORDER BY u"
    beas = BEAS(db, access, parallelism=1)
    oracle = expected_result(beas, sql)
    plan = beas.check(sql).plan
    with remote_route(beas, transport) as (run, peers):
        assert run(plan).rows == oracle.rows  # snapshot warm
        # corrupt the PEER's installed snapshot key without the master
        # noticing: the master's bookkeeping now claims the peer is
        # fresh while it is not — the per-task key check must catch it
        peers.debug("set_snapshot_key", ("bogus", "generation"))
        result = run(plan)
        assert result.rows == oracle.rows
        # the stale snapshot was re-shipped and the task retried on the
        # peer — a genuinely remote run, not a fallback
        assert served_remotely(transport, result)
        stats = peers.stats()
        assert stats.stale_reships >= 1
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
    with EnginePool(1) as pool:
        pool.acquire_timeout = 0.01
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
@pytest.mark.parametrize("transport", ["pool", "fleet"])
def test_bound_exceeded_propagates_from_workers(transport):
    """Non-conforming data (index built with validate=False) blows the
    deduced fetch bound; the remote run, on a pool worker or a fleet
    replica, must raise the same ExecutionError the in-process run does
    — never silently fall back into a 'successful' answer."""
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
    with remote_route(beas, transport) as (run, peers):
        with pytest.raises(ExecutionError, match="exceeding its deduced bound"):
            run(plan)
        # relayed, not fallen back: the peer ran the plan and is still up
        stats = peers.stats()
        assert stats.fallbacks == 0 and stats.failovers == 0


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
        session = beas.session()
        first = session.run(sql, use_result_cache=False, routing="static")
        assert first.rows == oracle.rows
        pool = beas.pool
        assert pool is not None
        pool.debug("die_on_next_task")
        for _ in range(3):
            result = session.run(sql, use_result_cache=False, routing="static")
            assert result.rows == oracle.rows
        stats = beas.pool_stats()
        assert stats is not None and stats.alive == 2
    finally:
        beas.close()


# --------------------------------------------------------------------------- #
# pool snapshots under the persistent store
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
        assert stats.snapshots_sent >= 1
        assert stats.stale_reships == 0
    finally:
        beas.close()


def test_router_never_trains_pooled_models_on_fallbacks():
    """A pooled execution that fell back in-process (ExecutionMetrics
    .pool_fallbacks > 0) is skipped by ExecutorRouter.observe — the
    pool's mean must not learn from serial latencies — and a route that
    was tried but never yielded a sample is not explored again."""
    from repro.engine.metrics import ExecutionMetrics
    from repro.engine.router import ExecutorRouter

    router = ExecutorRouter()
    fallback = ExecutionMetrics(seconds=0.5, pool_fallbacks=1)
    clean = ExecutionMetrics(seconds=0.5)
    router.observe("fp", (), "pool", fallback)
    assert router.stats().observations == 0
    assert router.stats().fallback_skips == 1
    # serial routes train regardless (a serial run IS a serial cost),
    # and clean pooled runs train normally
    router.observe("fp", (), "row", fallback)
    router.observe("fp", (), "pool", clean)
    assert router.stats().observations == 2
    assert router.stats().fallback_skips == 1

    # a template whose pool runs always fall back: each route is tried
    # once, then the pool, which never yields a sample, is never picked
    router = ExecutorRouter()
    router.epsilon = 0.0
    routes = ("row", "columnar", "pool")
    for _ in routes:
        choice = router.route("fp", (), routes)
        assert choice.explored
        seconds = {"row": 0.002, "columnar": 0.001, "pool": 0.0001}
        metrics = ExecutionMetrics(
            seconds=seconds[choice.route],
            pool_fallbacks=int(choice.route == "pool"),
        )
        router.observe("fp", (), choice.route, metrics)
    picks = [router.route("fp", (), routes) for _ in range(20)]
    assert {choice.route for choice in picks} == {"columnar"}
    assert not any(choice.explored for choice in picks)
    stats = router.stats()
    assert stats.explorations == 3
    assert stats.fallback_skips == 1
    assert stats.routed == {"row": 1, "columnar": 21, "pool": 1}
