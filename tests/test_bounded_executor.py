"""BE Plan Executor tests: correctness vs the host engine, metrics,
runtime bound enforcement, set operations."""

import pytest

from repro import (
    AccessConstraint,
    ASCatalog,
    BoundedEvaluabilityChecker,
    BoundedPlanExecutor,
    ConventionalEngine,
)
from repro.errors import ExecutionError

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
    example1_schema,
)


@pytest.fixture
def catalog() -> ASCatalog:
    return ASCatalog(example1_database(), example1_access_schema())


@pytest.fixture
def checker() -> BoundedEvaluabilityChecker:
    return BoundedEvaluabilityChecker(example1_schema(), example1_access_schema())


def run_bounded(catalog, checker, sql, **kwargs):
    decision = checker.check(sql)
    assert decision.covered, decision.reasons
    executor = BoundedPlanExecutor(catalog, **kwargs)
    return executor.execute(decision.plan)


class TestCorrectness:
    def test_example2_matches_host(self, catalog, checker):
        bounded = run_bounded(catalog, checker, EXAMPLE2_SQL)
        host = ConventionalEngine(catalog.database).execute(EXAMPLE2_SQL)
        assert set(bounded.rows) == set(host.rows)

    def test_single_fetch_query(self, catalog, checker):
        sql = (
            "SELECT DISTINCT recnum, region FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        bounded = run_bounded(catalog, checker, sql)
        host = ConventionalEngine(catalog.database).execute(sql)
        assert sorted(bounded.rows) == sorted(host.rows)

    def test_empty_key_returns_no_rows(self, catalog, checker):
        sql = (
            "SELECT recnum FROM call WHERE pnum = 'nope' AND date = '2016-06-01'"
        )
        assert run_bounded(catalog, checker, sql).rows == []

    def test_in_list_keys(self, catalog, checker):
        sql = (
            "SELECT DISTINCT recnum FROM call "
            "WHERE pnum IN ('100', '101') AND date = '2016-06-01'"
        )
        bounded = run_bounded(catalog, checker, sql)
        host = ConventionalEngine(catalog.database).execute(sql)
        assert sorted(bounded.rows) == sorted(host.rows)

    def test_aggregate_duplicate_insensitive(self, catalog, checker):
        sql = (
            "SELECT COUNT(DISTINCT recnum) FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        bounded = run_bounded(catalog, checker, sql)
        host = ConventionalEngine(catalog.database).execute(sql)
        assert bounded.rows == host.rows

    def test_order_by_and_limit(self, catalog, checker):
        sql = (
            "SELECT DISTINCT recnum FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01' ORDER BY recnum LIMIT 1"
        )
        bounded = run_bounded(catalog, checker, sql)
        assert bounded.rows == [("555",)]

    def test_set_operation(self, catalog, checker):
        sql = (
            "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east' "
            "UNION "
            "SELECT pnum FROM business WHERE type = 'shop' AND region = 'east'"
        )
        bounded = run_bounded(catalog, checker, sql)
        host = ConventionalEngine(catalog.database).execute(sql)
        assert sorted(bounded.rows) == sorted(host.rows)

    def test_except_operation(self, catalog, checker):
        sql = (
            "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east' "
            "EXCEPT "
            "SELECT DISTINCT pnum FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        # right side: needs pnum in X∪Y of psi1? pnum is an X attr: exposed
        bounded = run_bounded(catalog, checker, sql)
        host = ConventionalEngine(catalog.database).execute(sql)
        assert sorted(bounded.rows) == sorted(host.rows)


class TestMetrics:
    def test_no_base_tuples_scanned(self, catalog, checker):
        result = run_bounded(catalog, checker, EXAMPLE2_SQL)
        assert result.metrics.tuples_scanned == 0
        assert result.metrics.tuples_fetched > 0

    def test_fetch_within_deduced_bound(self, catalog, checker):
        decision = checker.check(EXAMPLE2_SQL)
        result = BoundedPlanExecutor(catalog).execute(decision.plan)
        assert result.metrics.tuples_fetched <= decision.access_bound

    def test_operations_recorded(self, catalog, checker):
        result = run_bounded(catalog, checker, EXAMPLE2_SQL)
        labels = [op.label for op in result.metrics.operations]
        assert any(label.startswith("fetch[psi3]") for label in labels)
        assert any(label.startswith("fetch[psi1]") for label in labels)


class TestBoundEnforcement:
    def test_executor_detects_nonconforming_drift(self, checker):
        """If data drifts past the constraint after index build (bypassing
        maintenance), the executor's bound check trips rather than
        silently returning unbounded work."""
        db = example1_database()
        catalog = ASCatalog(db, example1_access_schema())
        index = catalog.index_for(catalog.schema.get("psi1"))
        # forge an oversized bucket directly (simulates silent corruption);
        # index keys follow the constraint's sorted X order: (date, pnum)
        key = ("2016-06-01", "100")
        bucket = index._buckets.setdefault(key, {})
        for i in range(600):
            bucket[(f"r{i}", "x")] = 1

        decision = checker.check(
            "SELECT DISTINCT recnum FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        with pytest.raises(ExecutionError):
            BoundedPlanExecutor(catalog).execute(decision.plan)


class TestBagSemantics:
    def test_non_distinct_query_returns_set_semantics(self, catalog, checker):
        """call has a duplicate (recnum, region) pair on (100, 2016-06-01):
        BEAS (not bag-exact here) returns distinct rows."""
        sql = (
            "SELECT recnum, region FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        bounded = run_bounded(catalog, checker, sql)
        host = ConventionalEngine(catalog.database).execute(sql)
        assert len(host.rows) == 3  # bag has the duplicate
        assert sorted(bounded.rows) == sorted(set(host.rows))

    def test_bag_exact_plan_preserves_multiplicities(self):
        db = example1_database()
        access = example1_access_schema()
        access.add(
            AccessConstraint(
                "call", ["pnum", "date"], ["call_id", "recnum", "region"], 500,
                name="psi6",
            )
        )
        catalog = ASCatalog(db, access)
        checker = BoundedEvaluabilityChecker(
            db.schema, access, require_exact_multiplicities=True
        )
        sql = (
            "SELECT recnum, region FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        decision = checker.check(sql)
        assert decision.covered and decision.bag_exact
        bounded = BoundedPlanExecutor(catalog).execute(decision.plan)
        host = ConventionalEngine(db).execute(sql)
        assert sorted(bounded.rows) == sorted(host.rows)  # bag equality

    def test_count_star_exact_with_keys(self):
        db = example1_database()
        access = example1_access_schema()
        access.add(
            AccessConstraint(
                "call", ["pnum", "date"], ["call_id", "recnum", "region"], 500,
                name="psi6",
            )
        )
        catalog = ASCatalog(db, access)
        checker = BoundedEvaluabilityChecker(db.schema, access)
        sql = (
            "SELECT COUNT(*) FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        decision = checker.check(sql)
        assert decision.covered
        bounded = BoundedPlanExecutor(catalog).execute(decision.plan)
        host = ConventionalEngine(db).execute(sql)
        assert bounded.rows == host.rows == [(3,)]
