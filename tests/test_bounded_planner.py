"""BE Plan Generator tests: Example 2's plan and bound arithmetic,
key-chaining, fetch ordering, and failure explanations."""

import pytest

from repro import AccessConstraint, AccessSchema
from repro.bounded.plan import FetchOp, SelectOp
from repro.bounded.planner import BoundedPlanGenerator
from repro.errors import NotCoveredError
from repro.sql.normalize import normalize
from repro.sql.parser import parse

from tests.conftest import EXAMPLE2_SQL, example1_access_schema, example1_schema


def plan_for(sql: str, access=None, schema=None, **kwargs):
    schema = schema or example1_schema()
    access = access or example1_access_schema()
    generator = BoundedPlanGenerator(schema, access)
    cq = normalize(parse(sql), schema)
    return generator.generate(cq, **kwargs)


def try_plan(sql: str, access=None, schema=None, **kwargs):
    schema = schema or example1_schema()
    access = access or example1_access_schema()
    generator = BoundedPlanGenerator(schema, access)
    cq = normalize(parse(sql), schema)
    return generator.try_generate(cq, **kwargs)


class TestExample2:
    """The paper's Example 2, including its exact bound arithmetic."""

    def test_plan_exists(self):
        assert plan_for(EXAMPLE2_SQL) is not None

    def test_fetch_order_matches_paper(self):
        plan = plan_for(EXAMPLE2_SQL)
        names = [op.constraint.name for op in plan.fetch_ops]
        assert names == ["psi3", "psi2", "psi1"]

    def test_paper_bounds_per_fetch(self):
        """Steps (1), (2), (4): at most 2000, 24000, and 12M tuples."""
        plan = plan_for(EXAMPLE2_SQL)
        bounds = [op.access_bound for op in plan.fetch_ops]
        assert bounds == [2000, 24_000, 12_000_000]

    def test_paper_total_bound(self):
        plan = plan_for(EXAMPLE2_SQL)
        assert plan.access_bound == 2000 + 24_000 + 12_000_000

    def test_tight_bound_exploits_distinctness(self):
        """At most 2000 distinct pnums reach psi1, so the tight bound for
        the call fetch is 2000 x 500 = 1M rather than 24000 x 500."""
        plan = plan_for(EXAMPLE2_SQL)
        tights = [op.tight_access_bound for op in plan.fetch_ops]
        assert tights == [2000, 24_000, 1_000_000]
        assert plan.tight_access_bound == 2000 + 24_000 + 1_000_000

    def test_selections_applied_after_materialisation(self):
        plan = plan_for(EXAMPLE2_SQL)
        selection_targets = {
            str(op.column)
            for op in plan.ops
            if isinstance(op, SelectOp) and op.kind == "selection"
        }
        assert "package.pid" in selection_targets

    def test_residual_range_filters_present(self):
        plan = plan_for(EXAMPLE2_SQL)
        filters = [
            op for op in plan.ops
            if isinstance(op, SelectOp) and op.kind == "filter"
        ]
        assert len(filters) == 2  # start <= d0, end >= d0

    def test_constraints_used(self):
        plan = plan_for(EXAMPLE2_SQL)
        assert {c.name for c in plan.constraints_used} == {"psi1", "psi2", "psi3"}

    def test_deduce_bounds_summary(self):
        plan = plan_for(EXAMPLE2_SQL)
        assert plan.access_bound == 12_026_000
        assert [f.key_bound for f in plan.fetch_ops] == [1, 2000, 24_000]
        assert "fetch[psi3]" in plan.fetch_ops[0].describe()

    def test_not_bag_exact_without_keys(self):
        # psi1/psi2 do not expose call_id/pkg_id, business is keyed by pnum
        plan = plan_for(EXAMPLE2_SQL)
        assert not plan.bag_exact


class TestSimpleCoverage:
    def test_single_fetch_with_constants(self):
        plan = plan_for(
            "SELECT recnum FROM call WHERE pnum = '1' AND date = '2016-06-01'"
        )
        assert len(plan.fetch_ops) == 1
        assert plan.access_bound == 500

    def test_in_list_multiplies_key_bound(self):
        plan = plan_for(
            "SELECT recnum FROM call "
            "WHERE pnum IN ('1', '2', '3') AND date = '2016-06-01'"
        )
        fetch = plan.fetch_ops[0]
        assert fetch.key_bound == 3
        assert fetch.access_bound == 1500

    def test_two_in_lists_multiply(self):
        plan = plan_for(
            "SELECT recnum FROM call WHERE pnum IN ('1', '2') "
            "AND date IN ('2016-06-01', '2016-06-02')"
        )
        assert plan.fetch_ops[0].key_bound == 4

    def test_contradictory_selection_gives_zero_bound(self):
        plan = plan_for(
            "SELECT recnum FROM call "
            "WHERE pnum = '1' AND pnum = '2' AND date = '2016-06-01'"
        )
        assert plan.access_bound == 0

    def test_missing_x_attribute_not_covered(self):
        plan, reasons = try_plan("SELECT recnum FROM call WHERE pnum = '1'")
        assert plan is None
        assert any("call" in r for r in reasons)

    def test_unconstrained_relation_not_covered(self):
        access = AccessSchema(
            [AccessConstraint("call", ["pnum", "date"], ["recnum"], 500)]
        )
        plan, reasons = try_plan(
            "SELECT pid FROM package WHERE pnum = '1' AND year = 2016",
            access=access,
        )
        assert plan is None
        assert any("no access constraints" in r for r in reasons)

    def test_needed_attribute_outside_constraint_not_covered(self):
        # region is needed but psi_small only exposes recnum
        access = AccessSchema(
            [AccessConstraint("call", ["pnum", "date"], ["recnum"], 500)]
        )
        plan, reasons = try_plan(
            "SELECT region FROM call WHERE pnum = '1' AND date = '2016-06-01'",
            access=access,
        )
        assert plan is None
        assert any("lacks" in r for r in reasons)


class TestGreedyFetchOrdering:
    def test_smallest_bound_first(self):
        """Two ways to seed: the planner starts with the cheaper fetch."""
        schema = example1_schema()
        access = AccessSchema(
            [
                AccessConstraint(
                    "business", ["type", "region"], ["pnum"], 2000, name="big"
                ),
                AccessConstraint(
                    "package", ["pid", "year"], ["pnum", "start", "end"], 10,
                    name="small",
                ),
                AccessConstraint(
                    "call", ["pnum", "date"], ["recnum", "region"], 500,
                    name="calls",
                ),
            ]
        )
        sql = """
            SELECT c.recnum FROM call c, package p
            WHERE p.pid = 'c0' AND p.year = 2016 AND p.pnum = c.pnum
              AND c.date = '2016-06-01'
        """
        plan = plan_for(sql, access=access, schema=schema)
        assert [op.constraint.name for op in plan.fetch_ops] == ["small", "calls"]


class TestKeyChaining:
    def test_chain_via_key(self):
        """needed(o) spans two constraints; the first exposes the key."""
        access = AccessSchema(
            [
                AccessConstraint(
                    "call", ["pnum", "date"], ["call_id", "recnum"], 500,
                    name="anchor",
                ),
                AccessConstraint(
                    "call", ["call_id"], ["region"], 1, name="by_key"
                ),
            ]
        )
        plan = plan_for(
            "SELECT recnum, region FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'",
            access=access,
        )
        names = [op.constraint.name for op in plan.fetch_ops]
        assert names == ["anchor", "by_key"]
        assert plan.bag_exact  # anchored via call_id

    def test_chain_without_key_rejected(self):
        """Joining two non-key fetches on one occurrence is unsound: the
        planner must refuse (superset-of-projection hazard)."""
        access = AccessSchema(
            [
                AccessConstraint(
                    "call", ["pnum", "date"], ["recnum"], 500, name="f1"
                ),
                AccessConstraint(
                    "call", ["pnum", "date"], ["region"], 500, name="f2"
                ),
            ]
        )
        plan, reasons = try_plan(
            "SELECT recnum, region FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'",
            access=access,
        )
        assert plan is None

    def test_chain_bound_arithmetic(self):
        access = AccessSchema(
            [
                AccessConstraint(
                    "call", ["pnum", "date"], ["call_id", "recnum"], 500,
                    name="anchor",
                ),
                AccessConstraint(
                    "call", ["call_id"], ["region"], 1, name="by_key"
                ),
            ]
        )
        plan = plan_for(
            "SELECT recnum, region FROM call "
            "WHERE pnum = '1' AND date = '2016-06-01'",
            access=access,
        )
        assert [op.access_bound for op in plan.fetch_ops] == [500, 500]


class TestBagExactness:
    def test_require_bag_exact_backtracks_to_keyed_constraint(self):
        access = AccessSchema(
            [
                AccessConstraint(
                    "call", ["pnum", "date"], ["recnum", "region"], 500,
                    name="plain",
                ),
                AccessConstraint(
                    "call", ["pnum", "date"], ["call_id", "recnum", "region"],
                    500, name="keyed",
                ),
            ]
        )
        sql = (
            "SELECT region FROM call WHERE pnum = '1' AND date = '2016-06-01'"
        )
        relaxed = plan_for(sql, access=access)
        strict = plan_for(sql, access=access, require_bag_exact=True)
        assert strict.bag_exact
        assert [op.constraint.name for op in strict.fetch_ops] == ["keyed"]
        # the relaxed plan may pick either; both cover
        assert relaxed is not None

    def test_require_bag_exact_fails_without_key_constraint(self):
        plan, _ = try_plan(EXAMPLE2_SQL, require_bag_exact=True)
        assert plan is None


class TestEqualityEnforcement:
    def test_unkeyed_equality_becomes_select_op(self):
        """b.region = c.region is not used as any fetch key: the planner
        must emit an explicit equality filter."""
        sql = """
            SELECT c.recnum FROM call c, business b
            WHERE b.type = 'bank' AND b.region = 'east'
              AND b.pnum = c.pnum AND c.date = '2016-06-01'
              AND c.region = b.region
        """
        plan = plan_for(sql)
        equalities = [
            op for op in plan.ops
            if isinstance(op, SelectOp) and op.kind == "equality"
        ]
        assert len(equalities) == 1

    def test_columns_of_one_fetch_are_equated(self):
        """recnum = region, both brought in by psi1: one equality select,
        and no selection on the constant-keyed pnum and date."""
        plan = plan_for(
            "SELECT recnum FROM call WHERE pnum = '1' AND date = '2016-06-01' "
            "AND recnum = region"
        )
        assert [op.describe() for op in plan.ops[1:]] == [
            "select call.region = call.recnum"
        ]

    def test_a_constant_keyed_member_represents_its_class(self):
        """recnum = pnum with pnum keyed by its constant: recnum is
        equated to pnum, and no selection is needed."""
        plan = plan_for(
            "SELECT region FROM call WHERE pnum IN ('1', '2') "
            "AND date = '2016-06-01' AND recnum = pnum"
        )
        assert [op.describe() for op in plan.ops[1:]] == [
            "select call.recnum = call.pnum"
        ]

    def test_constants_reach_every_member_of_a_class(self):
        """recnum = region = 'north', neither keyed: the first member takes
        the selection, the other is equated to it."""
        plan = plan_for(
            "SELECT recnum FROM call WHERE pnum = '1' AND date = '2016-06-01' "
            "AND recnum = region AND region = 'north'"
        )
        assert [op.describe() for op in plan.ops[1:]] == [
            "select call.region = call.recnum",
            "select call.recnum in ('north')",
        ]

    def test_generate_raises_not_covered(self):
        with pytest.raises(NotCoveredError) as exc:
            plan_for("SELECT recnum FROM call WHERE pnum = '1'")
        assert exc.value.reasons


class TestImpliedChecks:
    """A fetch keyed by a class's constants returns only rows carrying
    one of them: the plan selects on no constant-keyed X column (TLC,
    scale 1)."""

    @pytest.fixture(scope="class")
    def tlc(self):
        from repro import Session
        from repro.workloads.tlc import generate_tlc, tlc_access_schema

        dataset = generate_tlc(1, 42)
        with Session(dataset.database, tlc_access_schema()) as session:
            yield session, dataset.params

    def test_no_tlc_plan_selects_a_constant_keyed_column(self, tlc):
        from repro.workloads.tlc import tlc_queries

        session, params = tlc
        for query in tlc_queries(params):
            decision = session.query(query.sql).decide()
            plan = decision.plan if decision.covered else decision.coverage.partial.sub_plan
            keyed = {
                (op.binding, part.attribute)
                for op in plan.fetch_ops
                for part in op.key_parts
                if part.source == "const"
            }
            assert keyed, query.name
            selected = {
                (op.column.binding, op.column.column)
                for op in plan.ops
                if isinstance(op, SelectOp) and op.kind == "selection"
            }
            assert not keyed & selected, (query.name, keyed & selected)

    def test_q2_runs_its_fetch_and_its_tail(self, tlc):
        from repro.workloads.tlc import query_by_name

        session, params = tlc
        result = session.run(query_by_name(params, "Q2").sql, use_result_cache=False)
        assert [op.label for op in result.metrics.operations] == [
            "fetch[psi1](call as call)",
            "project",
            "distinct",
        ]
