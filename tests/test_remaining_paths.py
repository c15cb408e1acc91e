"""Coverage for remaining utility paths: set-op bounds, logical
plan explain over every node type, and the bench dataset cache."""

from repro import BoundedEvaluabilityChecker, ConventionalEngine
from repro.bench.runner import cached_tlc

from tests.conftest import example1_access_schema, example1_database, example1_schema


class TestSetOpBounds:
    def test_deduce_bounds_over_union(self):
        checker = BoundedEvaluabilityChecker(
            example1_schema(), example1_access_schema()
        )
        decision = checker.check(
            "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east' "
            "UNION "
            "SELECT pnum FROM business WHERE type = 'shop' AND region = 'west'"
        )
        assert decision.covered
        plan = decision.plan
        fetches = plan.left.fetch_ops + plan.right.fetch_ops
        assert len(fetches) == 2
        assert plan.access_bound == sum(f.access_bound for f in fetches) == 4000
        assert all("fetch[psi3]" in f.describe() for f in fetches)

    def test_decision_describe_includes_budget_line(self):
        checker = BoundedEvaluabilityChecker(
            example1_schema(), example1_access_schema()
        )
        decision = checker.check(
            "SELECT DISTINCT recnum FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'",
            budget=600,
        )
        assert "within budget: True" in decision.describe()


class TestExplainAllNodes:
    def test_every_node_type_renders(self):
        engine = ConventionalEngine(example1_database())
        text = engine.explain(
            """
            SELECT DISTINCT b.region, COUNT(*) AS n
            FROM business b JOIN package p ON b.pnum = p.pnum
            WHERE b.type = 'bank' AND p.year = 2016 AND p.start <= p.end
            GROUP BY b.region HAVING COUNT(*) > 0
            ORDER BY n DESC LIMIT 5
            """
        )
        for fragment in (
            "Scan business", "Scan package", "Join", "Aggregate",
            "Sort", "Project", "Distinct", "Limit",
        ):
            assert fragment in text, fragment

    def test_set_op_explain(self):
        engine = ConventionalEngine(example1_database())
        text = engine.explain(
            "SELECT pnum FROM business UNION ALL SELECT pnum FROM business"
        )
        assert "UNION ALL" in text

    def test_materialized_node_explain(self):
        from repro.engine.logical import MaterializedNode, explain

        assert "Materialized [2 rows]" in explain(
            MaterializedNode(labels=["v"], rows=[(1,), (2,)])
        )


class TestDatasetCache:
    def test_cached_tlc_returns_same_object(self):
        first = cached_tlc(1)
        second = cached_tlc(1)
        assert first is second

    def test_different_scales_differ(self):
        assert cached_tlc(1) is not cached_tlc(2)
