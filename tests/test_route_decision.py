"""One route decision, one dispatcher (``repro.engine.router``).

``allowed_routes`` is the whole routing policy as data, and
``PlanRunner.run_route`` the only place a plan reaches a pool worker or a
fleet replica: a remote route that cannot serve falls back exactly once,
to in-process columnar, whichever peer failed.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from repro import BEAS, EnginePool, Session
from repro.beas.result import ExecutionMode
from repro.beas.session import ExecutionOptions
from repro.beas.system import _LazyPeers
from repro.engine.router import ROUTES, PlanRunner, allowed_routes

from tests.test_bounded_optimizer import SQL as PARTIAL_SQL
from tests.test_bounded_optimizer import build

_PORTS = itertools.count(9300, 16)

BOUNDED_SQL = "SELECT kind, zone FROM dim WHERE k = 'k3'"
SET_OP_SQL = f"{BOUNDED_SQL} UNION SELECT kind, zone FROM dim WHERE k = 'k4'"
JOIN_SQL = (
    "SELECT DISTINCT d.k, e.zone FROM dim d, dim e "
    "WHERE d.kind = 'red' AND d.zone = 'n' AND e.k = d.k ORDER BY d.k"
)


@pytest.fixture(scope="module")
def plans() -> dict:
    db, access = build()
    beas = BEAS(db, access, parallelism=1, replicas=1)
    return {
        "bounded": beas.check(BOUNDED_SQL).plan,
        "set-op": beas.check(SET_OP_SQL).plan,
        "prefix": beas.check(PARTIAL_SQL).partial,
    }


# --------------------------------------------------------------------------- #
# the policy, as a table
# --------------------------------------------------------------------------- #
E = "<the request's executor>"
ANY = (1, 2)
BOTH = ("static", "learned")

#: (plan kind, parallelism, replicas, routing) -> the allowed routes
TABLE = {
    ("bounded", (1,), (1,), ("static",)): (E,),
    ("bounded", (1,), (1,), ("learned",)): ("row", "columnar"),
    ("bounded", (2,), (1,), ("static",)): ("pool",),
    ("bounded", (2,), (1,), ("learned",)): ("row", "columnar", "pool"),
    # a replicas >= 2 request can only get the fleet
    ("bounded", ANY, (2,), BOTH): ("fleet",),
    # a set operation runs in-process: in batches under a pool
    ("set-op", (1,), ANY, BOTH): (E,),
    ("set-op", (2,), ANY, BOTH): ("columnar",),
    # a PARTIAL prefix never goes to the fleet
    ("prefix", (1,), ANY, BOTH): (E,),
    ("prefix", (2,), ANY, BOTH): ("pool",),
}

CASES = [
    (kind, executor, parallelism, replicas, routing, routes)
    for (kind, parallelisms, replica_counts, routings), routes in TABLE.items()
    for executor in ("row", "columnar")
    for parallelism in parallelisms
    for replicas in replica_counts
    for routing in routings
]


def test_the_table_covers_every_combination():
    assert len(CASES) == len({case[:5] for case in CASES}) == 3 * 2 * 2 * 2 * 2
    assert {route for routes in TABLE.values() for route in routes} == {E, *ROUTES}


@pytest.mark.parametrize(
    "kind, executor, parallelism, replicas, routing, routes", CASES
)
def test_allowed_routes(plans, kind, executor, parallelism, replicas, routing, routes):
    options = ExecutionOptions(executor=executor, routing=routing)
    engine = SimpleNamespace(parallelism=parallelism, replicas=replicas)
    expected = tuple(executor if route is E else route for route in routes)
    assert allowed_routes(options, engine, plans[kind]) == expected


# --------------------------------------------------------------------------- #
# the decision reaches the dispatcher
# --------------------------------------------------------------------------- #
def test_learned_routing_cannot_lose_the_fleet():
    db, access = build()
    options = ExecutionOptions(
        replicas=3, routing="learned", fleet_port_base=next(_PORTS)
    )
    with Session(db, access, options=options) as session:
        for _ in range(3):
            result = session.run(BOUNDED_SQL, use_result_cache=False)
            assert result.mode is ExecutionMode.BOUNDED
            assert result.metrics.replica_id >= 0
        assert session.stats().fleet.plans_dispatched == 3


def _row_route(beas: BEAS, sql: str):
    return beas.runner.run_route("row", beas.check(sql).plan)


def test_a_dead_worker_yields_exactly_one_fallback():
    db, access = build()
    beas = BEAS(db, access, parallelism=1, replicas=1)
    expected = _row_route(beas, JOIN_SQL)
    with EnginePool(1) as pool:
        runner = PlanRunner(beas.catalog, pool=lambda: pool)
        pool.debug("die_on_next_task")
        result = runner.run_route("pool", beas.check(JOIN_SQL).plan)
        assert result.metrics.pool_fallbacks == 1
        assert pool.stats().fallbacks == 1
    assert result.rows == expected.rows
    assert result.metrics.tuples_fetched == expected.metrics.tuples_fetched


def test_a_dead_replica_yields_exactly_one_fallback():
    db, access = build()
    with BEAS(
        db, access, parallelism=2, replicas=2, fleet_port_base=next(_PORTS)
    ) as beas:
        expected = _row_route(beas, BOUNDED_SQL)
        session = beas.session()
        first = session.run(BOUNDED_SQL, use_result_cache=False)
        assert first.metrics.replica_id >= 0
        beas.fleet.debug("die_on_next_task", replica_id=first.metrics.replica_id)
        result = session.run(BOUNDED_SQL, use_result_cache=False)
        assert result.metrics.replica_id == -1
        stats = beas.fleet_stats()
        assert stats.failovers == 1 and stats.fallbacks == 1
        # the one fallback edge is remote -> local: a fleet miss is not
        # offered to the pool next
        assert beas.pool is None
        assert result.metrics.pool_fallbacks == 0
        assert result.rows == expected.rows
        assert result.metrics.tuples_fetched == expected.metrics.tuples_fetched


def test_default_options_touch_neither_provider(monkeypatch):
    calls = []
    get = _LazyPeers.get
    monkeypatch.setattr(
        _LazyPeers, "get", lambda self: calls.append(self) or get(self)
    )
    db, access = build()
    options = ExecutionOptions(parallelism=1, replicas=1, routing="static")
    with Session(db, access, options=options) as session:
        modes = {
            session.run(sql, use_result_cache=False).mode
            for sql in (BOUNDED_SQL, SET_OP_SQL, JOIN_SQL, PARTIAL_SQL)
        }
        assert modes == {ExecutionMode.BOUNDED, ExecutionMode.PARTIAL}
        assert session.beas.pool is None and session.beas.fleet is None
    assert calls == []
