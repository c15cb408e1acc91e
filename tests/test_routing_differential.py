"""Router-vs-static differential suite: routing is a latency decision.

The learned executor router (``repro.engine.router``) picks one of the
observationally-identical routes per covered query. Whatever it
picks — and however wrong its cost model is — the answer must be
bit-identical to every static configuration: same rows in the same
order, same ``tuples_fetched`` accounting, same per-fetch breakdown.
This suite replays the seeded random SPJA workload of
``test_fuzz_differential`` through a ``routing="learned"`` server and
compares every scenario against **three** static oracles (row, columnar,
pool), with exploration forced fully on (``epsilon=1.0``) and fully off
(``epsilon=0.0``), plus a model-poisoning pass where the cost model is
pre-trained on absurd latencies.

The wiring surface (env var, Session/Query/call precedence, serve-stats
counters) is covered at the bottom, with the result cache's cost-aware
decline, which holds under learned routing as under static.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import pytest

from repro import BEAS, Session
from repro.beas.result import ExecutionMode
from repro.beas.session import ExecutionOptions
from repro.errors import BEASError
from repro.serving.cache import ResultCache

from tests.conftest import engine_run, example1_access_schema
from tests.test_columnar_differential import _inject_nulls
from tests.test_fuzz_differential import (
    random_example1_db,
    random_example1_query,
)
from tests.test_parallel_differential import _covered_queries, _fetch_ops

DIFFERENTIAL_SEEDS = 9
RANDOM_QUERIES_PER_SEED = 3
COVERED_QUERIES_PER_SEED = 3  # templates guaranteed to take the bounded path
QUERIES_PER_SEED = RANDOM_QUERIES_PER_SEED + COVERED_QUERIES_PER_SEED
EPSILONS = (1.0, 0.0)  # explore on every decision, then pure greedy
_SCENARIOS = 0  # learned-vs-three-static comparisons performed


def _static_oracles(db, dedup: bool, rows_per_batch: int):
    """The three static configurations the router chooses between."""
    common = dict(dedup_keys=dedup, rows_per_batch=rows_per_batch)
    return {
        "row": BEAS(
            db, example1_access_schema(), executor="row", parallelism=1,
            **common,
        ),
        "columnar": BEAS(
            db, example1_access_schema(), executor="columnar", parallelism=1,
            **common,
        ),
        "pool": BEAS(
            db, example1_access_schema(), executor="columnar", parallelism=2,
            **common,
        ),
    }


def _compare_learned(server, oracles, sql: str) -> ExecutionMode:
    global _SCENARIOS
    learned = server.execute(sql, routing="learned", use_result_cache=False)
    statics = {name: engine_run(beas, sql) for name, beas in oracles.items()}

    for name, static in statics.items():
        assert learned.mode == static.mode, (sql, name)
        assert learned.columns == static.columns, (sql, name)
        assert learned.rows == static.rows, (sql, name)
        assert (
            learned.metrics.tuples_fetched == static.metrics.tuples_fetched
        ), (sql, name)
        assert (
            learned.metrics.rows_output == static.metrics.rows_output
        ), (sql, name)

    if learned.mode is ExecutionMode.BOUNDED:
        # the route actually taken is stamped and is one the router owns
        assert learned.metrics.routed_mode in ("row", "columnar", "pool"), sql
        # the §3 per-fetch breakdown matches the matching static config
        twin = statics[learned.metrics.routed_mode]
        assert _fetch_ops(learned.metrics) == _fetch_ops(twin.metrics), sql
    else:
        # conventional/fallback executions never go through the router
        assert learned.metrics.routed_mode == "", sql
    _SCENARIOS += 1
    return learned.mode


@pytest.mark.parametrize("seed", range(DIFFERENTIAL_SEEDS))
def test_learned_routing_vs_static_differential(seed: int):
    before = _SCENARIOS
    rng = random.Random(771_300 + seed)
    db = random_example1_db(rng)
    if seed % 2:
        _inject_nulls(db, rng)
    queries = [
        random_example1_query(rng)[0] for _ in range(RANDOM_QUERIES_PER_SEED)
    ] + _covered_queries(rng)
    rows_per_batch = rng.choice([1, 2, 3, 7])
    dedup = bool(seed % 2)

    oracles = _static_oracles(db, dedup, rows_per_batch)
    learned_beas = BEAS(
        db,
        example1_access_schema(),
        dedup_keys=dedup,
        executor="columnar",
        rows_per_batch=rows_per_batch,
        parallelism=2,
    )
    try:
        server = learned_beas.session().server
        modes = []
        for epsilon in EPSILONS:
            server.router.epsilon = epsilon
            modes += [
                _compare_learned(server, oracles, sql) for sql in queries
            ]
        assert ExecutionMode.BOUNDED in modes
        stats = server.stats().routing
        assert stats is not None
        assert stats.decisions == modes.count(ExecutionMode.BOUNDED)
        # every decision was observed back into the model (clean runs) or
        # skipped as a pool fallback — never silently dropped
        assert stats.observations + stats.fallback_skips == stats.decisions
        assert sum(stats.routed.values()) == stats.decisions
        # epsilon=1.0 ran first: each covered decision in that half explored
        assert stats.explorations > 0
    finally:
        learned_beas.close()
        for oracle in oracles.values():
            oracle.close()
    assert _SCENARIOS - before == QUERIES_PER_SEED * len(EPSILONS)


def test_routing_differential_scenario_floor():
    """The acceptance bar: >= 100 seeded learned-vs-static scenarios
    (each parametrized run above asserts its exact share)."""
    total = DIFFERENTIAL_SEEDS * QUERIES_PER_SEED * len(EPSILONS)
    assert total >= 100, f"configured for only {total} scenarios"


# --------------------------------------------------------------------------- #
# model poisoning: a wrong cost model can only cost latency, never answers
# --------------------------------------------------------------------------- #
def test_poisoned_cost_model_never_changes_answers():
    from repro.engine.router import routing_features

    rng = random.Random(771_999)
    db = random_example1_db(rng)
    queries = _covered_queries(rng)
    oracle = BEAS(
        db, example1_access_schema(), executor="row", parallelism=1
    )
    beas = BEAS(
        db, example1_access_schema(), executor="columnar",
        rows_per_batch=3, parallelism=2,
    )
    try:
        server = beas.session().server
        server.router.epsilon = 0.0  # force pure exploitation of the poison
        # pre-train every model with absurd, inverted latencies so the
        # greedy pick is maximally wrong for every template
        from repro.engine.metrics import ExecutionMetrics

        for sql in queries:
            plan = beas.check(sql).plan
            features = routing_features(
                plan, {}, rows_per_batch=3, parallelism=2
            )
            fingerprint = f"poison:{sql[:32]}"
            for route, seconds in zip(
                ("row", "columnar", "pool"), (900.0, 1e-9, 450.0)
            ):
                for _ in range(8):
                    server.router.observe(
                        fingerprint, route, features,
                        ExecutionMetrics(seconds=seconds),
                    )
        for sql in queries:
            expected = engine_run(oracle, sql)
            for _ in range(3):  # greedy picks stay pinned to the poison
                got = server.execute(
                    sql, routing="learned", use_result_cache=False
                )
                assert got.rows == expected.rows, sql
                assert (
                    got.metrics.tuples_fetched
                    == expected.metrics.tuples_fetched
                ), sql
    finally:
        beas.close()
        oracle.close()


# --------------------------------------------------------------------------- #
# wiring: env var, Session/Query/call precedence, validation
# --------------------------------------------------------------------------- #
def _small_session(**kwargs) -> Session:
    rng = random.Random(771_001)
    return Session(random_example1_db(rng), example1_access_schema(), **kwargs)


_COVERED_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '2025550001' AND date = '2016-01-02'"
)


class TestRoutingWiring:
    def test_env_var_enables_learned_routing(self, monkeypatch):
        monkeypatch.setenv("BEAS_ROUTING", "learned")
        with _small_session() as session:
            result = session.run(_COVERED_SQL, use_result_cache=False)
            assert result.mode is ExecutionMode.BOUNDED
            assert result.metrics.routed_mode != ""

    def test_session_layer_routing(self, monkeypatch):
        monkeypatch.delenv("BEAS_ROUTING", raising=False)
        with _small_session(
            options=ExecutionOptions(routing="learned")
        ) as session:
            result = session.run(_COVERED_SQL, use_result_cache=False)
            assert result.metrics.routed_mode != ""

    def test_call_layer_overrides_session(self):
        with _small_session(
            options=ExecutionOptions(routing="learned")
        ) as session:
            result = session.run(
                _COVERED_SQL, routing="static", use_result_cache=False
            )
            assert result.metrics.routed_mode == ""
            assert result.metrics.routing_explored is False

    def test_query_layer_enables_routing(self):
        with _small_session() as session:
            query = session.query(_COVERED_SQL).with_options(
                routing="learned"
            )
            result = query.run(use_result_cache=False)
            assert result.metrics.routed_mode != ""

    def test_static_default_never_routes(self, monkeypatch):
        monkeypatch.delenv("BEAS_ROUTING", raising=False)
        with _small_session() as session:
            result = session.run(_COVERED_SQL, use_result_cache=False)
            assert result.metrics.routed_mode == ""
            assert session.server.stats().routing.decisions == 0

    def test_unknown_routing_rejected_at_call(self):
        with _small_session() as session:
            with pytest.raises(BEASError, match="routing"):
                session.run(_COVERED_SQL, routing="oracle")

    def test_bad_env_routing_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv("BEAS_ROUTING", "magic")
        with pytest.raises(BEASError, match="BEAS_ROUTING"):
            _small_session()

    def test_bad_env_epsilon_fails_at_serve_construction(self, monkeypatch):
        monkeypatch.setenv("BEAS_ROUTING_EPSILON", "fast")
        session = _small_session()
        try:
            with pytest.raises(BEASError, match="BEAS_ROUTING_EPSILON"):
                session.server  # the server builds the router
        finally:
            monkeypatch.delenv("BEAS_ROUTING_EPSILON")
            session.close()

    def test_serial_engine_routes_serial_only(self):
        """parallelism=1: the router must never pick a pooled route."""
        rng = random.Random(771_003)
        beas = BEAS(
            random_example1_db(rng), example1_access_schema(), parallelism=1
        )
        server = beas.session().server
        server.router.epsilon = 1.0  # exploration can only reach its routes
        for _ in range(8):
            result = server.execute(
                _COVERED_SQL, routing="learned", use_result_cache=False
            )
            assert result.metrics.routed_mode in ("row", "columnar")


# --------------------------------------------------------------------------- #
# cost-aware result-cache admission: the retention decline, the same under
# every routing mode (the router keeps no admission gate of its own)
# --------------------------------------------------------------------------- #
_OTHER_SQL = _COVERED_SQL.replace("2016-01-02", "2016-01-03")


class TestCostAwareAdmission:
    def test_admission_declined_when_rerun_is_cheaper(self):
        """A one-entry cache holding an answer dear to recompute: a
        cheap answer would be the lowest priority, so it is declined and
        its repeats re-execute; the dear one stays."""
        with _small_session(
            options=ExecutionOptions(routing="learned"),
            server_options={"result_cache_entries": 1},
        ) as session:
            results = session.server.results
            session.run(_OTHER_SQL)
            session.run(_OTHER_SQL)  # admitted on the second sighting
            ((key, entry),) = results.entries()
            assert results.install(key, replace(entry, cost=10.0))
            first = session.run(_COVERED_SQL)
            assert first.mode is ExecutionMode.BOUNDED
            for _ in range(3):
                repeat = session.run(_COVERED_SQL)
                assert repeat.metrics.decision_provenance != "result-cache"
            assert [k for k, _ in results.entries()] == [key]
            assert session.run(_OTHER_SQL).metrics.served_from_cache
            stats = session.server.stats()
            # two first sightings (the doorkeeper), then three repeats
            assert stats.admission_declines == 2 + 3
            assert stats.result.evictions == 0

    def test_admission_allows_caching_by_default(self):
        """Room in the cache -> admit on the second sighting (the static
        behaviour, under learned routing too)."""
        with _small_session(
            options=ExecutionOptions(routing="learned")
        ) as session:
            first = session.run(_COVERED_SQL)
            assert first.mode is ExecutionMode.BOUNDED
            second = session.run(_COVERED_SQL)  # doorkeeper: admits on 2nd
            third = session.run(_COVERED_SQL)
            assert third.metrics.decision_provenance == "result-cache"
            assert third.rows == first.rows
            assert third.metrics.seconds > 0  # real measured latency
            ((_, entry),) = session.server.results.entries()
            assert 0 < entry.cost < second.metrics.seconds + 1.0

    def test_retention_decline_rule(self):
        from repro.engine.router import ExecutorRouter, RouterStats

        results = ResultCache(max_entries=1, max_bytes=None, admit_on_second_hit=False)
        assert results.install("cheap", _Priced(cost=0.001))  # room: admit
        assert results.install("dear", _Priced(cost=2.0))  # evicts the cheaper
        assert not results.install("cheap", _Priced(cost=0.001))  # would go first
        assert [key for key, _ in results.entries()] == ["dear"]
        stats, own = results.snapshot()
        assert (stats.evictions, own["admission_declines"]) == (1, 1)
        assert results.lookup("dear").cost == 2.0
        assert results.snapshot()[1]["result_saved_s"] == 2.0
        # the router has no say in what is cached
        assert not hasattr(ExecutorRouter, "should_admit")
        assert "admission" not in RouterStats().describe()


@dataclass
class _Priced:
    cost: float
    tables: frozenset = frozenset({"call"})
    coarse_tables: frozenset = frozenset({"call"})
    read_keys: tuple = ()
