"""Tests for human-facing output paths: plan descriptions, metrics records,
bench reporting helpers, and the catalog's statistics system table."""

import pytest

from repro import ASCatalog, BoundedEvaluabilityChecker
from repro.bench.reporting import format_table, series_row
from repro.bench.runner import measure
from repro.bounded.plan import SetOpPlan, explain_plan
from repro.engine.metrics import ExecutionMetrics

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
    example1_schema,
)


@pytest.fixture
def checker():
    return BoundedEvaluabilityChecker(example1_schema(), example1_access_schema())


class TestPlanDescriptions:
    def test_bounded_plan_describe_lists_everything(self, checker):
        plan = checker.check(EXAMPLE2_SQL).plan
        text = explain_plan(plan)
        assert "fetch[psi3]" in text
        assert "fetch[psi2]" in text
        assert "fetch[psi1]" in text
        assert "<= 12000000 tuples" in text
        assert "access bound: 12026000" in text
        assert "bag-exact: False" in text

    def test_fetch_op_describe(self, checker):
        plan = checker.check(EXAMPLE2_SQL).plan
        fetch = plan.fetch_ops[0]
        text = fetch.describe()
        assert "business" in text and "psi3" in text

    def test_set_op_plan_describe(self, checker):
        left = checker.check(
            "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east'"
        ).plan
        right = checker.check(
            "SELECT pnum FROM business WHERE type = 'shop' AND region = 'east'"
        ).plan
        combined = SetOpPlan("UNION", left, right)
        text = combined.describe()
        assert "UNION" in text
        assert combined.access_bound == 4000
        assert combined.bag_exact  # business keyed by pnum; psi3 exposes it

    def test_set_op_all_flag_in_describe(self, checker):
        left = checker.check(
            "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east'"
        ).plan
        combined = SetOpPlan("UNION", left, left, all=True)
        assert "UNION ALL" in combined.describe()


class TestMetrics:
    def test_record_appends_operations(self):
        metrics = ExecutionMetrics()
        op = metrics.record("scan(x)", 10, 5, 0.001)
        assert metrics.operations == [op]
        assert op.tuples_out == 5

    def test_tuples_accessed_combines_scan_and_fetch(self):
        metrics = ExecutionMetrics(tuples_scanned=7, tuples_fetched=3)
        assert metrics.tuples_accessed == 10


class TestBenchHelpers:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_series_row(self):
        text = series_row("beas", [0.1, 0.25])
        assert "beas" in text and "0.100s" in text and "0.250s" in text

    def test_measure_returns_value_and_time(self):
        result = measure(lambda: 42)
        assert result.value == 42
        assert result.seconds >= 0


class TestStatisticsSystemTable:
    def test_contents_mirror_catalog(self):
        catalog = ASCatalog(example1_database(), example1_access_schema())
        table = catalog.statistics_table()
        assert table.schema.name == "as_catalog"
        names = {row[0] for row in table.rows}
        assert names == {"psi1", "psi2", "psi3"}
        by_name = {row[0]: row for row in table.rows}
        psi1 = by_name["psi1"]
        (stats,) = [s for s in catalog.statistics() if s.constraint_name == "psi1"]
        assert psi1[5] == stats.key_count
        assert psi1[6] == stats.entry_count
        assert psi1[8] == stats.storage_cells

    def test_queryable_like_any_relation(self):
        """The system table is a real relation: run SQL over it."""
        from repro import ConventionalEngine, Database

        catalog = ASCatalog(example1_database(), example1_access_schema())
        meta_db = Database(name="meta")
        meta_db.add_table(catalog.statistics_table())
        engine = ConventionalEngine(meta_db)
        result = engine.execute(
            "SELECT constraint_name FROM as_catalog WHERE n > 100 "
            "ORDER BY constraint_name"
        )
        assert result.rows == [("psi1",), ("psi3",)]

    def test_empty_catalog(self):
        catalog = ASCatalog(example1_database())
        assert len(catalog.statistics_table()) == 0
