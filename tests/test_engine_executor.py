"""Conventional engine tests: operators, plans, end-to-end SQL."""

import pytest

from repro import (
    ConventionalEngine,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.errors import ExecutionError


@pytest.fixture
def db() -> Database:
    schema = DatabaseSchema(
        [
            TableSchema(
                "emp",
                [
                    ("id", DataType.INT),
                    ("name", DataType.STRING),
                    ("dept", DataType.STRING),
                    ("salary", DataType.INT),
                    ("boss", DataType.STRING),
                ],
                keys=[("id",)],
            ),
            TableSchema(
                "dept",
                [("name", DataType.STRING), ("region", DataType.STRING)],
                keys=[("name",)],
            ),
        ]
    )
    database = Database(schema)
    emps = [
        (1, "ann", "eng", 120, "dan"),
        (2, "bob", "eng", 100, "ann"),
        (3, "cat", "ops", 90, "dan"),
        (4, "dan", "mgmt", 150, None),
        (5, "eve", "ops", 90, "cat"),
        (6, "fay", None, 80, "dan"),
    ]
    depts = [("eng", "east"), ("ops", "west"), ("hr", "east")]
    for row in emps:
        database.insert("emp", row)
    for row in depts:
        database.insert("dept", row)
    return database


@pytest.fixture
def engine(db) -> ConventionalEngine:
    return ConventionalEngine(db)


class TestScanFilterProject:
    def test_select_all(self, engine):
        assert len(engine.execute("SELECT * FROM emp")) == 6

    def test_filter_equality(self, engine):
        result = engine.execute("SELECT name FROM emp WHERE dept = 'eng'")
        assert sorted(result.rows) == [("ann",), ("bob",)]

    def test_filter_null_never_matches(self, engine):
        result = engine.execute("SELECT name FROM emp WHERE dept = 'missing'")
        assert result.rows == []

    def test_is_null_filter(self, engine):
        result = engine.execute("SELECT name FROM emp WHERE dept IS NULL")
        assert result.rows == [("fay",)]

    def test_computed_output(self, engine):
        result = engine.execute("SELECT salary * 2 AS double FROM emp WHERE id = 1")
        assert result.rows == [(240,)] and result.columns == ["double"]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT boss FROM emp WHERE boss = 'dan'")
        assert result.rows == [("dan",)]

    def test_metrics_scanned(self, engine):
        result = engine.execute("SELECT name FROM emp")
        assert result.metrics.tuples_scanned == 6


class TestJoins:
    def test_null_keys_never_join(self, engine):
        # fay has dept NULL: she must not appear even with a NULL dept row
        result = engine.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name"
        )
        assert ("fay",) not in result.rows

    def test_self_join(self, engine):
        result = engine.execute(
            "SELECT e.name, b.name FROM emp e, emp b "
            "WHERE e.boss = b.name AND b.dept = 'mgmt' ORDER BY e.name"
        )
        assert result.rows == [("ann", "dan"), ("cat", "dan"), ("fay", "dan")]

    def test_cross_join(self, engine):
        result = engine.execute("SELECT e.id FROM emp e CROSS JOIN dept d")
        assert len(result.rows) == 18

    def test_implicit_cross_join(self, engine):
        result = engine.execute("SELECT e.id FROM emp e, dept d")
        assert len(result.rows) == 18

    def test_join_with_extra_filter(self, engine):
        result = engine.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name "
            "WHERE d.region = 'east' AND e.salary > 100"
        )
        assert result.rows == [("ann",)]


class TestAggregates:
    def test_count_star(self, engine):
        assert engine.execute("SELECT COUNT(*) FROM emp").rows == [(6,)]

    def test_count_column_skips_nulls(self, engine):
        assert engine.execute("SELECT COUNT(dept) FROM emp").rows == [(5,)]

    def test_count_distinct(self, engine):
        assert engine.execute("SELECT COUNT(DISTINCT dept) FROM emp").rows == [(3,)]

    def test_sum_avg_min_max(self, engine):
        result = engine.execute(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        )
        assert result.rows == [(630, 105.0, 80, 150)]

    def test_group_by(self, engine):
        result = engine.execute(
            "SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept ORDER BY c DESC, dept"
        )
        assert result.rows == [
            ("eng", 2),
            ("ops", 2),
            (None, 1),
            ("mgmt", 1),
        ]

    def test_having(self, engine):
        result = engine.execute(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 1 "
            "ORDER BY dept"
        )
        assert result.rows == [("eng", 2), ("ops", 2)]

    def test_scalar_aggregate_on_empty_input(self, engine):
        result = engine.execute("SELECT COUNT(*), SUM(salary) FROM emp WHERE id = 99")
        assert result.rows == [(0, None)]

    def test_group_by_empty_input_yields_no_rows(self, engine):
        result = engine.execute(
            "SELECT dept, COUNT(*) FROM emp WHERE id = 99 GROUP BY dept"
        )
        assert result.rows == []

    def test_aggregate_arithmetic(self, engine):
        result = engine.execute("SELECT MAX(salary) - MIN(salary) FROM emp")
        assert result.rows == [(70,)]

    def test_sum_distinct(self, engine):
        # salaries: 120,100,90,150,90,80 -> distinct 120,100,90,150,80 = 540
        assert engine.execute("SELECT SUM(DISTINCT salary) FROM emp").rows == [(540,)]


class TestOrderLimit:
    def test_order_by_desc(self, engine):
        result = engine.execute("SELECT name FROM emp ORDER BY salary DESC, name")
        assert result.rows[0] == ("dan",)

    def test_order_by_output_alias(self, engine):
        result = engine.execute(
            "SELECT salary * 2 AS d FROM emp ORDER BY d LIMIT 1"
        )
        assert result.rows == [(160,)]

    def test_nulls_first_ascending(self, engine):
        result = engine.execute("SELECT dept FROM emp ORDER BY dept LIMIT 1")
        assert result.rows == [(None,)]

    def test_limit_offset(self, engine):
        result = engine.execute("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2")
        assert result.rows == [(3,), (4,)]

    def test_limit_zero(self, engine):
        assert engine.execute("SELECT id FROM emp LIMIT 0").rows == []


class TestSetOperations:
    def test_union_dedupes(self, engine):
        result = engine.execute(
            "SELECT dept FROM emp WHERE dept = 'eng' UNION SELECT name FROM dept"
        )
        assert sorted(result.rows) == [("eng",), ("hr",), ("ops",)]

    def test_union_all_keeps_duplicates(self, engine):
        result = engine.execute(
            "SELECT dept FROM emp WHERE dept = 'eng' UNION ALL SELECT name FROM dept"
        )
        assert len(result.rows) == 5

    def test_intersect(self, engine):
        result = engine.execute(
            "SELECT DISTINCT dept FROM emp INTERSECT SELECT name FROM dept"
        )
        assert sorted(result.rows) == [("eng",), ("ops",)]

    def test_except(self, engine):
        result = engine.execute(
            "SELECT name FROM dept EXCEPT SELECT DISTINCT dept FROM emp"
        )
        assert result.rows == [("hr",)]

    def test_arity_mismatch_rejected(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT id, name FROM emp UNION SELECT name FROM dept")


class TestProfiles:
    """The plan listing, and the per-table statistics profile (the
    offline ANALYZE) the planner reads."""

    def test_explain_contains_scan(self, engine):
        assert "Scan emp" in engine.explain("SELECT name FROM emp")

    def test_statistics_cache_invalidation(self, db):
        engine = ConventionalEngine(db)
        stats1 = engine.statistics()["emp"].row_count
        db.insert("emp", (7, "gil", "eng", 70, "ann"))
        stats2 = engine.statistics()["emp"].row_count
        assert (stats1, stats2) == (6, 7)
