"""The unified Session/Query/Decision/Result lifecycle (repro.beas.session).

Covers the redesigned public API: construction, the query lifecycle,
the single options-precedence chain (call > Query > Session >
environment), engine-pinned option guards, result shapes, the one request path every entry point shares, and the
construction-time validation satellites (executor strings, failed pool
spawns).
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro import (
    BEAS,
    AccessConstraint,
    ExecutionMode,
    ExecutionOptions,
    Session,
)
from repro.beas import system as beas_system
from repro.errors import BEASError, BudgetExceededError
from repro.serving import request as request_path
from repro.workloads.tlc import tlc_access_schema, tlc_queries

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)
from tests.test_subsumption_differential import (
    SELECT as EVENTS_SELECT,
    build_events_database,
    events_access,
)

CALL_SQL = (
    "SELECT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)


@pytest.fixture
def session():
    with Session(example1_database(), example1_access_schema()) as s:
        yield s


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #
class TestConstruction:
    def test_database_xor_beas(self):
        db = example1_database()
        with pytest.raises(BEASError, match="exactly one"):
            Session()
        with pytest.raises(BEASError, match="exactly one"):
            Session(db, beas=BEAS(db))

    def test_adopting_an_engine(self):
        engine = BEAS(example1_database(), example1_access_schema())
        with Session(beas=engine) as s:
            assert s.beas is engine
            assert len(s.query(CALL_SQL).run()) == 2
        # adopted engines are not closed by the session
        assert len(engine.session().run(CALL_SQL)) == 2

    def test_beas_session_helper(self):
        engine = BEAS(example1_database(), example1_access_schema())
        s = engine.session()
        assert s.beas is engine
        assert s.query(CALL_SQL).run().mode is ExecutionMode.BOUNDED

    def test_adopted_engine_schema_conflict(self):
        engine = BEAS(example1_database())
        with pytest.raises(BEASError, match="access_schema"):
            Session(beas=engine, access_schema=example1_access_schema())

    def test_server_options_forwarded_once(self):
        with Session(
            example1_database(),
            example1_access_schema(),
            server_options={"sharded": False},
        ) as s:
            assert s.server.sharded is False
            assert s.server is s.server  # memoised


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_query_decide_run(self, session):
        q = session.query(EXAMPLE2_SQL)
        decision = q.decide()
        assert decision.verdict == "bounded"
        assert decision.covered and decision.provenance == "fresh"
        assert decision.access_bound == 12026000
        result = decision.run()
        assert sorted(result.rows) == [("east",), ("north",), ("south",)]
        assert result.schema == ("region",)
        assert result.mode is ExecutionMode.BOUNDED
        assert len(result) == 3 and set(result) == result.to_set()

    def test_bind_returns_new_handle(self, session):
        q = session.query(CALL_SQL)
        bound = q.bind(date="2016-06-02")
        assert bound is not q and q.params == {}
        assert bound.params == {"date": "2016-06-02"}
        assert sorted(bound.run().rows) == [("555", "west")]
        # merging: later binds layer over earlier ones
        double = bound.bind(pnum="101")
        assert double.params == {"date": "2016-06-02", "pnum": "101"}
        assert double.run().rows == []
        assert bound.unbound().params == {}

    def test_decision_reuse_skips_checker(self, session):
        q = session.query(CALL_SQL)
        decision = q.decide()
        runs = session.beas.checker_runs
        for _ in range(3):
            assert len(decision.run()) == 2
        assert session.beas.checker_runs == runs

    def test_detached_decision_cannot_run(self, session):
        from repro.beas.session import Decision

        decision = session.query(CALL_SQL).decide()
        detached = Decision(decision.coverage, "fresh", 0, None)
        with pytest.raises(BEASError, match="not attached"):
            detached.run()

    def test_session_run_one_shot(self, session):
        result = session.run(CALL_SQL)
        assert len(result.rows) == 2
        assert result.decision.provenance in ("fresh", "cached")

    def test_explain(self, session):
        text = session.explain(EXAMPLE2_SQL)
        assert "fetch[" in text
        uncovered = session.query("SELECT type FROM business")
        assert "NOT covered" in uncovered.decide().describe()

    def test_not_covered_falls_back(self, session):
        result = session.query("SELECT type FROM business").run()
        assert result.mode in (ExecutionMode.PARTIAL, ExecutionMode.CONVENTIONAL)
        assert result.decision.verdict == "not-covered"
        assert len(result.rows) == 4

    def test_budget_round_trip(self, session):
        q = session.query(EXAMPLE2_SQL)
        decision = q.decide(budget=5000)
        assert decision.within_budget is False
        with pytest.raises(BudgetExceededError):
            q.run(budget=5000)
        approx = q.run(budget=5000, approximate_over_budget=True)
        assert approx.mode is ExecutionMode.APPROXIMATE
        assert approx.approximation is not None

    def test_decision_run_keeps_its_budget(self, session):
        """An over-budget verdict must never silently execute
        unbounded: run() defaults to the budget decide() evaluated."""
        decision = session.query(EXAMPLE2_SQL).decide(budget=5000)
        assert decision.within_budget is False
        with pytest.raises(BudgetExceededError):
            decision.run()
        approx = decision.run(approximate_over_budget=True)
        assert approx.mode is ExecutionMode.APPROXIMATE
        # an explicit call-level budget still wins
        relaxed = decision.run(budget=20_000_000)
        assert relaxed.mode is ExecutionMode.BOUNDED

    def test_maintenance_invalidates(self, session):
        q = session.query(CALL_SQL)
        assert len(q.run()) == 2
        session.insert("call", [(99, "100", "999", "2016-06-01", "bay")])
        refreshed = q.run()
        assert ("999", "bay") in refreshed.rows

    def test_register_through_session(self, session):
        session.register(
            AccessConstraint("call", ["region"], ["pnum"], 100, name="psiR")
        )
        d = session.query(
            "SELECT pnum FROM call WHERE region = 'north'"
        ).decide()
        assert d.covered and d.access_bound == 100
        session.unregister("psiR")

    def test_stats_exposes_rebind_counters(self, session):
        q = session.query(CALL_SQL)
        q.bind(date="2016-06-02").run()
        q.bind(date="2016-06-03").run()
        stats = session.stats()
        assert stats.rebinds >= 1
        assert stats.checker_runs == session.beas.checker_runs
        assert "plan rebinds" in stats.describe()

    def test_serve_async_front_end(self, session):
        async def go():
            async with session.serve_async(max_workers=2) as aserver:
                result = await aserver.execute(CALL_SQL)
                decision = await aserver.decide_prepared(
                    session.query(CALL_SQL)._prepared, {"date": "2016-06-02"}
                )
                return result, decision

        result, decision = asyncio.run(go())
        assert len(result.rows) == 2
        assert decision.covered
        assert decision.provenance in ("fresh", "cached", "rebound")


# --------------------------------------------------------------------------- #
# the options chain
# --------------------------------------------------------------------------- #
class TestOptionsChain:
    def test_validation_at_construction(self):
        with pytest.raises(BEASError):
            ExecutionOptions(executor="simd")
        with pytest.raises(BEASError):
            ExecutionOptions(rows_per_batch=0)
        with pytest.raises(BEASError):
            ExecutionOptions(parallelism=-1)
        with pytest.raises(BEASError):
            ExecutionOptions(budget=-5)
        with pytest.raises(BEASError):
            ExecutionOptions(allow_partial="yes")

    def test_defaults_are_concrete(self):
        d = ExecutionOptions.defaults()
        assert d.executor == "row" and d.parallelism == 1
        assert d.use_result_cache is True and d.allow_partial is True

    def test_env_layer(self, monkeypatch):
        monkeypatch.setenv("BEAS_EXECUTOR", "columnar")
        monkeypatch.setenv("BEAS_ROWS_PER_BATCH", "512")
        env = ExecutionOptions.from_environment()
        assert env.executor == "columnar" and env.rows_per_batch == 512

    def test_session_beats_environment(self, monkeypatch):
        monkeypatch.setenv("BEAS_ROWS_PER_BATCH", "512")
        with Session(
            example1_database(),
            example1_access_schema(),
            options=ExecutionOptions(rows_per_batch=128),
        ) as s:
            assert s.options.rows_per_batch == 128
            assert s.beas._rows_per_batch == 128

    def test_environment_is_the_last_layer(self, monkeypatch):
        monkeypatch.setenv("BEAS_EXECUTOR", "columnar")
        # an ambient BEAS_ROUTING=learned would reroute per query; this
        # test observes the static env executor layer specifically
        monkeypatch.delenv("BEAS_ROUTING", raising=False)
        with Session(example1_database(), example1_access_schema()) as s:
            assert s.options.executor == "columnar"
            result = s.query(CALL_SQL).run(use_result_cache=False)
            assert result.metrics.rows_per_batch > 0  # columnar ran

    def test_call_beats_query_beats_session(self, session):
        q = session.query(CALL_SQL).with_options(executor="columnar")
        r = q.run(use_result_cache=False)
        assert r.options.executor == "columnar"
        assert r.metrics.rows_per_batch > 0
        r = q.run(executor="row", use_result_cache=False)
        assert r.options.executor == "row"
        if session.options.parallelism < 2:
            # pooled execution always runs the columnar wire pipeline,
            # so the batch counter only goes quiet in-process
            assert r.metrics.rows_per_batch == 0

    def test_engine_pinned_options_cannot_drift(self, session):
        q = session.query(CALL_SQL)
        with pytest.raises(BEASError, match="cannot be overridden"):
            q.with_options(rows_per_batch=64).run()
        with pytest.raises(BEASError, match="cannot be overridden"):
            q.run(parallelism=3)
        # restating the pinned value is fine
        assert q.run(parallelism=session.options.parallelism) is not None

    def test_adopted_engine_conflict_raises(self):
        engine = BEAS(example1_database(), rows_per_batch=64)
        with pytest.raises(BEASError, match="conflicts with the adopted"):
            Session(beas=engine, options=ExecutionOptions(rows_per_batch=128))

    def test_options_merge_and_describe(self):
        a = ExecutionOptions(executor="columnar")
        b = ExecutionOptions(budget=10, executor="row")
        merged = a.over(b)
        assert merged.executor == "columnar" and merged.budget == 10
        assert "executor='columnar'" in a.describe()
        assert a.replace(budget=7).budget == 7


# --------------------------------------------------------------------------- #
# one request path
# --------------------------------------------------------------------------- #
def _alternative_binding(database, query) -> dict:
    """The template's first slot bound to a *different* value of its
    column drawn from the data (the template's own when the slot does
    not name a base table)."""
    name, slot = sorted(query.slots.items())[0]
    table, column = name.split(".")
    if table not in database:
        return {name: list(slot.values)}
    position = database.table(table).schema.positions([column])[0]
    values = sorted(
        {row[position] for row in database.table(table).rows} - {None}
    )
    return {name: values[(values.index(slot.values[0]) + 1) % len(values)]}


class TestOneRequestPath:
    @pytest.fixture(scope="class")
    def tlc_session(self, tlc_small):
        # uncached, so that every entry point really executes and the
        # tuples_fetched accounting is comparable (and so that the async
        # front end has a session option to honour)
        with Session(
            tlc_small.database,
            tlc_access_schema(),
            options=ExecutionOptions(use_result_cache=False),
        ) as s:
            yield s

    @pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 12)])
    def test_entry_points_agree(self, tlc_small, tlc_session, name, bound):
        session = tlc_session
        sql = next(q.sql for q in tlc_queries(tlc_small.params) if q.name == name)
        query = session.query(sql)
        prepared = session.server.prepare(sql)
        params = _alternative_binding(session.database, query) if bound else None
        statement = prepared.binding(params).statement

        async def through_async():
            async with session.serve_async(max_workers=2) as aserver:
                return (
                    await aserver.execute(statement),
                    await aserver.execute_prepared(prepared, params),
                )

        results = [
            session.run(statement),
            query.bind(params).run(),
            query.bind(params).decide().run(),
            *asyncio.run(through_async()),
        ]
        first = results[0]
        for other in results[1:]:
            assert Counter(other.rows) == Counter(first.rows)
            assert other.mode is first.mode
            assert other.metrics.tuples_fetched == first.metrics.tuples_fetched
            assert other.decision.access_bound == first.decision.access_bound
            assert other.options == first.options == session.options
        assert not any(r.served_from_cache for r in results)

    def test_async_front_end_honours_session_options(self):
        """serve_async() with no keywords behaves exactly like
        Session.run: the session's options are every request's base."""
        wide = EVENTS_SELECT + "pnum = 'p4' AND day >= 0 AND day <= 90"
        narrow = EVENTS_SELECT + "pnum = 'p4' AND day >= 10 AND day <= 50"

        async def thrice(session, *queries):
            async with session.serve_async(max_workers=2) as aserver:
                return [await aserver.execute(sql) for sql in queries]

        with Session(
            build_events_database(),
            events_access(),
            options=ExecutionOptions(use_result_cache=False),
        ) as uncached:
            results = asyncio.run(thrice(uncached, wide, wide, wide))
            assert not any(r.served_from_cache for r in results)
            assert all(r.options == uncached.options for r in results)
        with Session(
            build_events_database(),
            events_access(),
            options=ExecutionOptions(result_reuse="subsume"),
            server_options={"result_admission": "always"},
        ) as subsuming:
            _, tighter = asyncio.run(thrice(subsuming, wide, narrow))
            assert tighter.decision.provenance == "subsumed"
            # per-call keywords still override the session's layer
            async def exact():
                async with subsuming.serve_async() as aserver:
                    return await aserver.execute(narrow, result_reuse="exact")

            assert asyncio.run(exact()).decision.provenance != "subsumed"

    def test_result_cache_hit_stops_at_the_probe(self, session, monkeypatch):
        """A result-cache hit ends the request at the exact probe: no
        decide, route or execute stage runs."""
        for _ in range(2):  # second sighting admits
            session.run(CALL_SQL)
        ran: list[str] = []
        evaluations: list[int] = []

        def recording(stage):
            def run(server, request):
                ran.append(stage.__name__)
                return stage(server, request)

            return run

        monkeypatch.setattr(
            request_path, "STAGES", tuple(map(recording, request_path.STAGES))
        )
        evaluate = session.beas.evaluate
        monkeypatch.setattr(
            session.beas,
            "evaluate",
            lambda *a, **k: evaluations.append(1) or evaluate(*a, **k),
        )
        before = session.stats()
        hit = session.run(CALL_SQL)
        after = session.stats()
        assert hit.served_from_cache
        assert ran == ["front_end", "observe", "probe_exact"]
        assert not evaluations
        assert after.checker_runs == before.checker_runs
        assert after.rebinds == before.rebinds
        assert after.executions == before.executions + 1

    def test_generation_is_stamped_from_the_locked_observation(
        self, session, monkeypatch
    ):
        """A register that lands after the request's locked observation
        must not restamp the answer: Decision.generation is the
        generation the answer was decided and executed under."""
        observed = session.beas.catalog.schema_generation

        def bump(server, request):
            # a direct catalog call: it bypasses the schema write lock,
            # so it can land while this request still holds its read locks
            server.beas.catalog.register(
                AccessConstraint("call", ["region"], ["pnum"], 100, name="late")
            )

        stages = list(request_path.STAGES)
        stages.insert(stages.index(request_path.admit), bump)
        monkeypatch.setattr(request_path, "STAGES", tuple(stages))
        result = session.query(CALL_SQL).run()
        assert session.beas.catalog.schema_generation == observed + 1
        assert result.decision.generation == observed
        assert len(result.rows) == 2

# --------------------------------------------------------------------------- #
# construction-time validation satellites
# --------------------------------------------------------------------------- #
class TestValidationSatellites:
    def test_bad_executor_fails_beas_construction(self):
        with pytest.raises(BEASError, match="executor"):
            BEAS(example1_database(), executor="simd")

    def test_bad_executor_fails_session_construction(self):
        with pytest.raises(BEASError, match="executor"):
            Session(
                example1_database(),
                options=ExecutionOptions(executor="vectorised"),
            )

    def test_per_query_executor_validated_before_execution(self, session):
        q = session.query(CALL_SQL)
        with pytest.raises(BEASError, match="executor"):
            q.run(executor="simd")
        # the serving layer rejects it before any lock/execution too
        with pytest.raises(BEASError, match="executor"):
            session.server.execute(CALL_SQL, executor="simd")
        executions = session.server.stats().executions
        assert executions == 0  # nothing was admitted past validation

    def test_close_idempotent_after_failed_pool_spawn(self, monkeypatch):
        """A failed lazy pool spawn must fall back in-process and leave
        close()/__exit__ idempotent (no raise, callable repeatedly)."""

        class ExplodingPool:
            def __init__(self, *a, **k):
                raise OSError("fork refused")

        monkeypatch.setattr(beas_system, "EnginePool", ExplodingPool)
        with BEAS(
            example1_database(), example1_access_schema(), parallelism=2
        ) as beas:
            result = beas.session().run(CALL_SQL)  # in-process fallback
            assert len(result.rows) == 2
            assert beas.pool is None
            beas.close()
            beas.close()  # idempotent
        # __exit__ ran close() a third time without raising

    def test_spawn_failure_is_not_retried_per_query(self, monkeypatch):
        attempts = []

        class ExplodingPool:
            def __init__(self, *a, **k):
                attempts.append(1)
                raise OSError("fork refused")

        monkeypatch.setattr(beas_system, "EnginePool", ExplodingPool)
        beas = BEAS(example1_database(), example1_access_schema(), parallelism=2)
        for _ in range(3):
            beas.session().run(CALL_SQL, use_result_cache=False)
        assert len(attempts) == 1
