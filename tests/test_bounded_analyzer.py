"""Performance analyzer tests (the Fig.-3 panel)."""

import pytest

from repro import (
    ASCatalog,
    BoundedEvaluabilityChecker,
    BoundedPlanExecutor,
    ConventionalEngine,
    PerformanceAnalyzer,
)
from repro.errors import NotCoveredError
from repro.storage.table import Table

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)


@pytest.fixture
def analyzer() -> PerformanceAnalyzer:
    return PerformanceAnalyzer(
        ASCatalog(example1_database(), example1_access_schema())
    )


class TestAnalyze:
    def test_panel_contents(self, analyzer):
        analysis = analyzer.analyze(EXAMPLE2_SQL)
        assert analysis.constraints_used == ["psi3", "psi2", "psi1"]
        assert analysis.access_bound == 12_026_000
        assert analysis.tuples_fetched > 0
        conventional = analysis.conventional
        assert conventional.speedup == pytest.approx(
            conventional.seconds / analysis.beas_seconds
        )

    def test_same_answers_asserted(self, analyzer):
        """BEAS and the conventional engine answer Example 2 alike. Its
        bounded plan is not bag-exact, so the two agree as sets: BEAS
        returns 3 rows, the conventional engine 4."""
        catalog = ASCatalog(example1_database(), example1_access_schema())
        decision = BoundedEvaluabilityChecker(
            catalog.database.schema, catalog.schema
        ).check(EXAMPLE2_SQL)
        assert decision.covered and not decision.bag_exact
        bounded = BoundedPlanExecutor(catalog).execute(decision.plan)
        conventional = ConventionalEngine(catalog.database).execute(EXAMPLE2_SQL)
        assert set(bounded.rows) == set(conventional.rows)
        assert (len(bounded.rows), len(conventional.rows)) == (3, 4)
        analysis = analyzer.analyze(EXAMPLE2_SQL)
        assert analysis.rows_output == 3
        assert analysis.conventional.rows_output == 4

    def test_conventional_time_collects_no_statistics(self, analyzer, monkeypatch):
        """The panel times the conventional query, not an ANALYZE of its
        tables: statistics are collected before the timed run."""
        collected, timing = [], []
        statistics, execute = Table.statistics, ConventionalEngine.execute

        def counted_statistics(table):
            if timing:
                collected.append(table.schema.name)
            return statistics(table)

        def timed_execute(engine, query):
            timing.append(query)
            try:
                return execute(engine, query)
            finally:
                timing.pop()

        monkeypatch.setattr(Table, "statistics", counted_statistics)
        monkeypatch.setattr(ConventionalEngine, "execute", timed_execute)
        analyzer.analyze(EXAMPLE2_SQL)
        assert collected == []

    def test_describe_mentions_everything(self, analyzer):
        text = analyzer.analyze(EXAMPLE2_SQL).describe()
        assert "BEAS" in text
        assert "conventional:" in text
        assert "per-operation breakdown" in text
        assert "fetch[psi1]" in text

    def test_operation_breakdown_has_fetches_and_scans(self, analyzer):
        analysis = analyzer.analyze(EXAMPLE2_SQL)
        beas_labels = [op.label for op in analysis.beas_operations]
        comparator_labels = [op.label for op in analysis.conventional.operations]
        assert any(label.startswith("fetch[") for label in beas_labels)
        assert any(label.startswith("scan(") for label in comparator_labels)

    def test_uncovered_query_rejected(self, analyzer):
        with pytest.raises(NotCoveredError):
            analyzer.analyze("SELECT recnum FROM call")
