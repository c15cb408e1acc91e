"""BE Checker tests: coverage decisions, aggregate policy, budgets, set ops."""

import pytest

from repro import BEAS, AccessConstraint, AccessSchema, BoundedEvaluabilityChecker
from repro.bounded.plan import SetOpPlan
from repro.bounded.planner import BoundedPlanGenerator
from repro.workloads.tlc import tlc_access_schema

from tests.conftest import EXAMPLE2_SQL, example1_access_schema, example1_schema


@pytest.fixture
def checker() -> BoundedEvaluabilityChecker:
    return BoundedEvaluabilityChecker(example1_schema(), example1_access_schema())


def keyed_schema() -> AccessSchema:
    """A schema whose call constraint exposes the key (bag-exact plans)."""
    schema = example1_access_schema()
    schema.add(
        AccessConstraint(
            "call", ["pnum", "date"], ["call_id", "recnum", "region"], 500,
            name="psi6",
        )
    )
    return schema


class TestBasicDecisions:
    def test_example2_covered(self, checker):
        decision = checker.check(EXAMPLE2_SQL)
        assert decision.covered
        assert decision.access_bound == 12_026_000
        assert [c.name for c in decision.constraints_used] == [
            "psi3", "psi2", "psi1",
        ]

    def test_not_covered_has_reasons(self, checker):
        decision = checker.check("SELECT recnum FROM call WHERE pnum = '1'")
        assert not decision.covered
        assert decision.reasons

    def test_describe_covered(self, checker):
        text = checker.check(EXAMPLE2_SQL).describe()
        assert "12026000" in text and "psi3" in text

    def test_describe_not_covered(self, checker):
        text = checker.check("SELECT recnum FROM call").describe()
        assert "NOT covered" in text

    def test_parse_error_is_a_clean_decision(self, checker):
        decision = checker.check("SELEKT broken !!")
        assert not decision.covered and decision.reasons

    def test_outside_fragment_reported(self, checker):
        decision = checker.check(
            "SELECT c.region FROM call c LEFT JOIN business b ON b.pnum = c.pnum"
        )
        assert not decision.covered
        assert any("SPJA" in r for r in decision.reasons)


class TestBudget:
    def test_within_budget(self, checker):
        decision = checker.check(EXAMPLE2_SQL, budget=20_000_000)
        assert decision.covered and decision.within_budget

    def test_over_budget(self, checker):
        decision = checker.check(EXAMPLE2_SQL, budget=1_000_000)
        assert decision.covered and decision.within_budget is False

    def test_no_budget_means_none(self, checker):
        assert checker.check(EXAMPLE2_SQL).within_budget is None

    def test_budget_boundary_inclusive(self, checker):
        decision = checker.check(EXAMPLE2_SQL, budget=12_026_000)
        assert decision.within_budget


class TestAggregatePolicy:
    def test_duplicate_insensitive_aggregates_covered_without_keys(self, checker):
        decision = checker.check(
            "SELECT COUNT(DISTINCT recnum) FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'"
        )
        assert decision.covered

    def test_min_max_covered_without_keys(self, checker):
        decision = checker.check(
            "SELECT MIN(recnum), MAX(recnum) FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'"
        )
        assert decision.covered

    def test_count_star_rejected_without_keys(self, checker):
        decision = checker.check(
            "SELECT COUNT(*) FROM call WHERE pnum = '1' AND date = '2016-06-01'"
        )
        assert not decision.covered
        assert any("bag-exact" in r for r in decision.reasons)

    def test_count_star_covered_with_keyed_constraint(self):
        checker = BoundedEvaluabilityChecker(example1_schema(), keyed_schema())
        decision = checker.check(
            "SELECT COUNT(*) FROM call WHERE pnum = '1' AND date = '2016-06-01'"
        )
        assert decision.covered and decision.bag_exact

    def test_sum_rejected_avg_rejected_without_keys(self, checker):
        for agg in ("SUM(call_id)", "AVG(call_id)"):
            decision = checker.check(
                f"SELECT {agg} FROM call WHERE pnum = '1' AND date = '2016-06-01'"
            )
            assert not decision.covered, agg

    def test_group_by_covered_with_keys(self):
        checker = BoundedEvaluabilityChecker(example1_schema(), keyed_schema())
        decision = checker.check(
            "SELECT region, COUNT(*) FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01' GROUP BY region"
        )
        assert decision.covered


class TestExactMultiplicityPolicy:
    SQL = "SELECT region FROM call WHERE pnum = '1' AND date = '2016-06-01'"

    def test_default_accepts_set_semantics(self, checker):
        decision = checker.check(self.SQL)
        assert decision.covered and not decision.bag_exact

    def test_strict_mode_rejects_without_keys(self):
        checker = BoundedEvaluabilityChecker(
            example1_schema(),
            example1_access_schema(),
            require_exact_multiplicities=True,
        )
        decision = checker.check(self.SQL)
        assert not decision.covered
        assert any("multiplicities" in r for r in decision.reasons)

    def test_strict_mode_accepts_with_keys(self):
        checker = BoundedEvaluabilityChecker(
            example1_schema(), keyed_schema(), require_exact_multiplicities=True
        )
        assert checker.check(self.SQL).covered

    def test_strict_mode_accepts_distinct(self):
        checker = BoundedEvaluabilityChecker(
            example1_schema(),
            example1_access_schema(),
            require_exact_multiplicities=True,
        )
        assert checker.check(
            "SELECT DISTINCT region FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'"
        ).covered


class TestSetOperations:
    LEFT = "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east'"
    RIGHT = "SELECT pnum FROM business WHERE type = 'shop' AND region = 'east'"

    def test_union_of_covered_is_covered(self, checker):
        decision = checker.check(f"{self.LEFT} UNION {self.RIGHT}")
        assert decision.covered
        assert isinstance(decision.plan, SetOpPlan)
        assert decision.access_bound == 4000

    def test_except_intersect_covered(self, checker):
        for op in ("EXCEPT", "INTERSECT"):
            assert checker.check(f"{self.LEFT} {op} {self.RIGHT}").covered

    def test_union_with_uncovered_side_rejected(self, checker):
        decision = checker.check(
            f"{self.LEFT} UNION SELECT pnum FROM package WHERE year = 2016"
        )
        assert not decision.covered
        assert any("right argument" in r for r in decision.reasons)

    def test_union_all_requires_bag_exactness(self, checker):
        decision = checker.check(f"{self.LEFT} UNION ALL {self.RIGHT}")
        # business is keyed by pnum and psi3 exposes pnum => bag-exact, OK
        assert decision.covered

    def test_union_all_rejected_without_keys(self, checker):
        sql = (
            "SELECT region FROM call WHERE pnum = '1' AND date = '2016-06-01' "
            "UNION ALL "
            "SELECT region FROM call WHERE pnum = '2' AND date = '2016-06-01'"
        )
        decision = checker.check(sql)
        assert not decision.covered
        assert any("UNION ALL" in r for r in decision.reasons)

    def test_constraints_used_merged_without_duplicates(self, checker):
        decision = checker.check(f"{self.LEFT} UNION {self.RIGHT}")
        assert [c.name for c in decision.constraints_used] == ["psi3"]


class TestOneSearch:
    """A duplicate-sensitive aggregate over a plan that covers but is not
    bag-exact: the strict search alone tells which reason applies."""

    PROBE = (
        "select cu.segment, count(*) from customer cu, package pk "
        "where pk.pid = 'x' and pk.year = 2016 and pk.pnum = cu.pnum "
        "group by cu.segment"
    )

    def test_check_searches_once(self, tlc_small, monkeypatch):
        calls = []
        try_generate = BoundedPlanGenerator.try_generate

        def counting(self, cq, **kwargs):
            calls.append(kwargs)
            return try_generate(self, cq, **kwargs)

        monkeypatch.setattr(BoundedPlanGenerator, "try_generate", counting)
        with BEAS(tlc_small.database, tlc_access_schema()) as beas:
            decision = beas.check(self.PROBE)
        assert decision.reasons == [
            "aggregates (COUNT) need exact multiplicities, but no bag-exact "
            "bounded plan exists: some occurrence cannot be key-covered by "
            "its fetches"
        ]
        # the strict search, then the BE Plan Optimizer's prefix
        assert calls == [{"require_bag_exact": True}, {}]
