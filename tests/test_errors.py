"""Tests for the exception hierarchy's contracts."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_sql_errors_group(self):
        assert issubclass(errors.LexerError, errors.SQLError)
        assert issubclass(errors.ParseError, errors.SQLError)
        assert issubclass(errors.NormalizationError, errors.SQLError)

    def test_catalog_errors_group(self):
        assert issubclass(errors.UnknownTableError, errors.CatalogError)
        assert issubclass(errors.UnknownColumnError, errors.CatalogError)
        assert issubclass(errors.AmbiguousColumnError, errors.CatalogError)
        assert issubclass(errors.TypeMismatchError, errors.CatalogError)

    def test_planning_errors_group(self):
        assert issubclass(errors.NotCoveredError, errors.PlanningError)
        assert issubclass(errors.BudgetExceededError, errors.PlanningError)


class TestErrorPayloads:
    def test_lexer_error_location(self):
        error = errors.LexerError("bad", position=5, line=2, column=3)
        assert error.line == 2 and error.column == 3
        assert "line 2" in str(error)

    def test_parse_error_without_location(self):
        error = errors.ParseError("oops")
        assert str(error) == "oops"

    def test_parse_error_with_location(self):
        error = errors.ParseError("oops", line=1, column=7)
        assert "column 7" in str(error)

    def test_unknown_column_mentions_table(self):
        error = errors.UnknownColumnError("c", "t")
        assert "'c'" in str(error) and "'t'" in str(error)

    def test_ambiguous_column_lists_tables(self):
        error = errors.AmbiguousColumnError("x", ["b", "a"])
        assert "a, b" in str(error)

    def test_not_covered_carries_reasons(self):
        error = errors.NotCoveredError("nope", ["r1", "r2"])
        assert error.reasons == ["r1", "r2"]

    def test_budget_exceeded_payload(self):
        error = errors.BudgetExceededError(100, 10)
        assert error.bound == 100 and error.budget == 10
        assert "100" in str(error) and "10" in str(error)

    def test_conformance_error_violations_default(self):
        error = errors.ConformanceError("bad")
        assert error.violations == []
