"""End-to-end tests of the BEAS facade: modes, budgets, schema management."""

import pytest

from repro import (
    AccessConstraint,
    BEAS,
    BoundedEvaluabilityChecker,
    ConventionalEngine,
    ExecutionMode,
)
from repro.errors import BudgetExceededError

from tests.conftest import EXAMPLE2_SQL


class TestModes:
    def test_covered_query_runs_bounded(self, ex1_beas):
        result = ex1_beas.session().run(EXAMPLE2_SQL)
        assert result.mode is ExecutionMode.BOUNDED
        assert result.metrics.tuples_scanned == 0
        assert set(result.rows) == {("north",), ("south",), ("east",)}

    def test_uncovered_joins_take_partial_route(self, ex1_beas):
        # package has no usable seed here (year unbound), business covered
        sql = """
            SELECT DISTINCT p.pid FROM package p, business b
            WHERE b.type = 'bank' AND b.region = 'east' AND p.pnum = b.pnum
        """
        result = ex1_beas.session().run(sql)
        assert result.mode is ExecutionMode.PARTIAL
        host = ex1_beas.host_engine().execute(sql)
        assert sorted(result.rows) == sorted(host.rows)

    def test_hopeless_query_runs_conventional(self, ex1_beas):
        sql = "SELECT DISTINCT region FROM call"
        result = ex1_beas.session().run(sql)
        assert result.mode is ExecutionMode.CONVENTIONAL
        assert not result.decision.covered

    def test_describe_summary(self, ex1_beas):
        text = ex1_beas.session().run(EXAMPLE2_SQL).describe()
        assert "bounded" in text and "fetched" in text


class TestBudget:
    def test_within_budget_runs_bounded(self, ex1_beas):
        result = ex1_beas.session().run(EXAMPLE2_SQL, budget=13_000_000)
        assert result.mode is ExecutionMode.BOUNDED

    def test_over_budget_raises(self, ex1_beas):
        with pytest.raises(BudgetExceededError) as exc:
            ex1_beas.session().run(EXAMPLE2_SQL, budget=100)
        assert exc.value.bound == 12_026_000
        assert exc.value.budget == 100

    def test_over_budget_approximation(self, ex1_beas):
        result = ex1_beas.session().run(
            EXAMPLE2_SQL, budget=100, approximate_over_budget=True
        )
        assert result.mode is ExecutionMode.APPROXIMATE
        assert result.approximation is not None
        assert result.approximation.tuples_fetched <= 100
        exact = ex1_beas.session().run(EXAMPLE2_SQL)
        assert set(result.rows) <= set(exact.rows)

    def test_check_reports_budget(self, ex1_beas):
        decision = ex1_beas.check(EXAMPLE2_SQL, budget=1)
        assert decision.covered and decision.within_budget is False


class TestExplain:
    def test_covered_explain_lists_fetches(self, ex1_beas):
        text = ex1_beas.explain(EXAMPLE2_SQL)
        assert "fetch[psi3]" in text
        assert "access bound" in text

    def test_uncovered_explain_shows_reasons_and_host_plan(self, ex1_beas):
        text = ex1_beas.explain("SELECT DISTINCT region FROM call")
        assert "NOT covered" in text
        assert "host plan" in text
        assert "Scan call" in text


class TestSchemaManagement:
    def test_register_enables_coverage(self, ex1_db):
        beas = BEAS(ex1_db)
        sql = (
            "SELECT DISTINCT recnum FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        assert not beas.check(sql).covered
        beas.register(
            AccessConstraint("call", ["pnum", "date"], ["recnum"], 500, name="c")
        )
        assert beas.check(sql).covered

    def test_unregister_disables_coverage(self, ex1_beas):
        assert ex1_beas.check(EXAMPLE2_SQL).covered
        ex1_beas.unregister("psi1")
        assert not ex1_beas.check(EXAMPLE2_SQL).covered

    def test_register_all(self, ex1_db):
        from tests.conftest import example1_access_schema

        beas = BEAS(ex1_db)
        beas.register_all(list(example1_access_schema()))
        assert beas.check(EXAMPLE2_SQL).covered

    def test_result_iteration_and_len(self, ex1_beas):
        result = ex1_beas.session().run(EXAMPLE2_SQL)
        assert len(result) == len(list(result)) == len(result.to_set())


class TestAnalyzerIntegration:
    def test_performance_analysis(self, ex1_beas):
        analysis = ex1_beas.analyze_performance(EXAMPLE2_SQL)
        assert analysis.constraints_used == ["psi3", "psi2", "psi1"]
        assert analysis.conventional.tuples_scanned > 0

    def test_session_analyze_decides_once_and_counts_it(self, ex1_beas, monkeypatch):
        """The panel runs under the session's decision: two analyses of
        one text run the BE Checker once, and ``checker_runs`` counts
        that run."""
        checks = []
        check = BoundedEvaluabilityChecker.check

        def counted(checker, *args, **kwargs):
            checks.append(args[0])
            return check(checker, *args, **kwargs)

        monkeypatch.setattr(BoundedEvaluabilityChecker, "check", counted)
        session = ex1_beas.session()
        before = session.stats().checker_runs
        first = session.analyze(EXAMPLE2_SQL)
        second = session.analyze(EXAMPLE2_SQL)
        assert len(checks) == 1
        assert session.stats().checker_runs == before + 1
        assert first.constraints_used == second.constraints_used == ["psi3", "psi2", "psi1"]
        assert first.tuples_fetched == second.tuples_fetched > 0

    def test_host_engine_profiles(self, ex1_beas):
        """``host_engine()`` is the one conventional engine, no profile."""
        engine = ex1_beas.host_engine()
        assert isinstance(engine, ConventionalEngine)
        assert engine is ex1_beas.host_engine()
        assert engine.database is ex1_beas.database
