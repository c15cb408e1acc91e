"""Unit tests for the SPJA normaliser."""

from dataclasses import replace

import pytest

from repro.errors import (
    AmbiguousColumnError,
    NormalizationError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.sql import ast
from repro.sql.normalize import Attribute, normalize
from repro.sql.parser import parse

from tests.conftest import example1_schema


def norm(sql: str):
    return normalize(parse(sql), example1_schema())


class TestOccurrences:
    def test_bindings_from_aliases(self):
        cq = norm("SELECT c.region FROM call c, business b WHERE b.pnum = c.pnum")
        assert cq.occurrences == {"c": "call", "b": "business"}

    def test_bindings_default_to_table_names(self):
        cq = norm("SELECT call.region FROM call")
        assert cq.occurrences == {"call": "call"}

    def test_duplicate_binding_rejected(self):
        with pytest.raises(NormalizationError):
            norm("SELECT call.region FROM call, call")

    def test_self_join_with_aliases(self):
        cq = norm(
            "SELECT a.recnum FROM call a, call b WHERE a.recnum = b.pnum"
        )
        assert set(cq.occurrences) == {"a", "b"}

    def test_join_on_condition_merged(self):
        cq = norm("SELECT c.region FROM call c JOIN business b ON b.pnum = c.pnum")
        assert (Attribute("b", "pnum"), Attribute("c", "pnum")) in cq.equalities

    def test_left_join_rejected(self):
        with pytest.raises(NormalizationError):
            norm("SELECT c.region FROM call c LEFT JOIN business b ON b.pnum = c.pnum")

    def test_select_without_from_rejected(self):
        with pytest.raises(NormalizationError):
            normalize(parse("SELECT 1"), example1_schema())


class TestResolution:
    def test_unqualified_unique_column(self):
        cq = norm("SELECT recnum FROM call")
        assert cq.output[0].expression == ast.ColumnRef("recnum", table="call")

    def test_ambiguous_column_rejected(self):
        with pytest.raises(AmbiguousColumnError):
            norm("SELECT region FROM call, business")

    def test_unknown_column_rejected(self):
        with pytest.raises(UnknownColumnError):
            norm("SELECT nonsense FROM call")

    def test_unknown_table_qualifier_rejected(self):
        with pytest.raises(UnknownTableError):
            norm("SELECT zz.region FROM call")

    def test_star_expansion(self):
        cq = norm("SELECT * FROM business")
        assert cq.output_names == ["pnum", "type", "region"]

    def test_qualified_star_expansion(self):
        cq = norm("SELECT b.* FROM business b, call c")
        assert cq.output_names == ["pnum", "type", "region"]

    def test_output_alias(self):
        cq = norm("SELECT region AS r FROM call")
        assert cq.output_names == ["r"]

    def test_generated_name_for_expression(self):
        cq = norm("SELECT call_id + 1 FROM call")
        assert cq.output_names == ["col1"]


class TestConjunctClassification:
    def test_constant_selection(self):
        cq = norm("SELECT region FROM call WHERE pnum = '5'")
        assert cq.selections[Attribute("call", "pnum")] == ("5",)

    def test_reversed_constant(self):
        cq = norm("SELECT region FROM call WHERE '5' = pnum")
        assert cq.selections[Attribute("call", "pnum")] == ("5",)

    def test_in_list_selection(self):
        cq = norm("SELECT region FROM call WHERE pnum IN ('5', '6')")
        assert cq.selections[Attribute("call", "pnum")] == ("5", "6")

    def test_contradictory_selections_intersect(self):
        cq = norm("SELECT region FROM call WHERE pnum = '5' AND pnum = '6'")
        assert cq.selections[Attribute("call", "pnum")] == ()

    def test_equality_atom(self):
        cq = norm("SELECT c.region FROM call c, business b WHERE c.pnum = b.pnum")
        assert (Attribute("c", "pnum"), Attribute("b", "pnum")) in cq.equalities

    def test_range_is_residual_filter(self):
        cq = norm("SELECT region FROM call WHERE date >= '2016-01-01'")
        assert len(cq.filters) == 1 and not cq.selections

    def test_or_is_residual_filter(self):
        cq = norm("SELECT region FROM call WHERE pnum = '5' OR pnum = '6'")
        assert len(cq.filters) == 1 and not cq.selections

    def test_not_in_is_residual(self):
        cq = norm("SELECT region FROM call WHERE pnum NOT IN ('5')")
        assert len(cq.filters) == 1

    def test_null_equality_is_residual(self):
        # x = NULL is never a selection (it is UNKNOWN in SQL)
        cq = norm("SELECT region FROM call WHERE pnum = NULL")
        assert not cq.selections and len(cq.filters) == 1

    def test_a_node_the_traversal_does_not_know_is_rejected(self):
        statement = parse("SELECT region FROM call WHERE pnum = '1'")
        where = ast.BinaryOp("=", ast.ColumnRef("pnum"), ast.OrderItem(ast.Literal(1)))
        with pytest.raises(NormalizationError, match="cannot resolve"):
            normalize(replace(statement, where=where), example1_schema())


class TestAggregation:
    def test_aggregates_detected(self):
        cq = norm("SELECT COUNT(*) FROM call")
        assert cq.has_aggregates and len(cq.aggregates) == 1

    def test_group_by_attributes(self):
        cq = norm("SELECT region, COUNT(*) FROM call GROUP BY region")
        assert cq.group_by == [Attribute("call", "region")]

    def test_non_grouped_column_rejected(self):
        with pytest.raises(NormalizationError):
            norm("SELECT region, COUNT(*) FROM call")

    def test_group_by_expression_rejected(self):
        with pytest.raises(NormalizationError):
            norm("SELECT COUNT(*) FROM call GROUP BY call_id + 1")

    def test_having_without_aggregation_rejected(self):
        with pytest.raises(NormalizationError):
            norm("SELECT region FROM call HAVING COUNT(*) > 1")

    def test_order_by_alias_stays_unqualified(self):
        cq = norm(
            "SELECT region, COUNT(*) AS cnt FROM call GROUP BY region ORDER BY cnt"
        )
        order_expr = cq.order_by[0].expression
        assert isinstance(order_expr, ast.ColumnRef) and order_expr.table is None


class TestNeededAttributes:
    def test_attributes_of_collects_everything(self):
        cq = norm(
            """
            SELECT c.region FROM call c, business b
            WHERE b.pnum = c.pnum AND b.type = 'bank' AND c.date >= '2016-01-01'
            """
        )
        assert cq.attributes_of("c") == {"region", "pnum", "date"}
        assert cq.attributes_of("b") == {"pnum", "type"}

    def test_all_attributes(self):
        cq = norm("SELECT region FROM call WHERE pnum = '1'")
        assert {
            Attribute(binding, column)
            for binding in cq.occurrences
            for column in cq.attributes_of(binding)
        } == {
            Attribute("call", "region"),
            Attribute("call", "pnum"),
        }

    def test_order_by_base_attr_counts_as_needed(self):
        cq = norm("SELECT region FROM call ORDER BY date")
        assert "date" in cq.attributes_of("call")


class TestBetweenExpansion:
    """BETWEEN with non-NULL literal bounds expands to its range
    conjuncts so both spellings classify (and plan) identically."""

    @staticmethod
    def _filter_texts(cq):
        from repro.sql.printer import expression_to_sql

        return sorted(expression_to_sql(f.expression) for f in cq.filters)

    def test_between_matches_conjunct_spelling(self):
        a = norm("SELECT region FROM call WHERE date BETWEEN 'a' AND 'b'")
        b = norm("SELECT region FROM call WHERE date >= 'a' AND date <= 'b'")
        assert len(a.filters) == 2
        assert self._filter_texts(a) == self._filter_texts(b)

    def test_not_between_matches_disjunct_spelling(self):
        a = norm("SELECT region FROM call WHERE date NOT BETWEEN 'a' AND 'b'")
        b = norm("SELECT region FROM call WHERE date < 'a' OR date > 'b'")
        assert len(a.filters) == 1
        assert self._filter_texts(a) == self._filter_texts(b)

    def test_null_bound_stays_a_between_filter(self):
        # with a NULL bound the conjunct form is not truth-value
        # equivalent (engine BETWEEN: any NULL operand -> UNKNOWN), so
        # the Between node must survive normalisation untouched
        cq = norm("SELECT region FROM call WHERE date BETWEEN NULL AND 'b'")
        assert len(cq.filters) == 1
        assert isinstance(cq.filters[0].expression, ast.Between)

    def test_column_bound_stays_a_between_filter(self):
        cq = norm(
            "SELECT region FROM call WHERE date BETWEEN recnum AND 'b'"
        )
        assert len(cq.filters) == 1
        assert isinstance(cq.filters[0].expression, ast.Between)
