"""Performance analysis à la Fig. 3 of the paper.

After a query runs, the demo's analyzer panel reports "(a) the overall
execution time, acceleration ratio compared to commercial DBMS, the total
number of tuples fetched and the number of access constraints employed;
and (b) a breakdown of the cost to each individual operation in the query
plan, compared to its counterpart in plans generated by commercial DBMS".
:class:`PerformanceAnalyzer` produces exactly that, running the bounded
plan once and the conventional engine once per comparator profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.access.catalog import ASCatalog
from repro.errors import NotCoveredError
from repro.sql import ast
from repro.engine.executor import ConventionalEngine, QueryResult
from repro.engine.metrics import OperationCost
from repro.engine.profiles import MARIADB, MYSQL, POSTGRESQL, EngineProfile
from repro.bounded.coverage import BoundedEvaluabilityChecker
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.plan import AnyBoundedPlan


@dataclass
class EngineComparison:
    """One comparator row of the analysis panel."""

    profile: str
    seconds: float
    speedup: float  # comparator seconds / BEAS seconds
    tuples_scanned: int
    rows_output: int
    operations: list[OperationCost] = field(default_factory=list)


@dataclass
class PerformanceAnalysis:
    """The full Fig.-3 panel for one query."""

    query: str
    beas_seconds: float
    tuples_fetched: int
    access_bound: int
    constraints_used: list[str]
    rows_output: int
    beas_operations: list[OperationCost] = field(default_factory=list)
    comparisons: list[EngineComparison] = field(default_factory=list)

    def speedup_over(self, profile: str) -> float:
        for comparison in self.comparisons:
            if comparison.profile == profile:
                return comparison.speedup
        raise KeyError(profile)

    def describe(self) -> str:
        lines = [
            f"BEAS: {self.beas_seconds * 1000:.2f} ms, "
            f"{self.tuples_fetched} tuples fetched "
            f"(bound {self.access_bound}), "
            f"{len(self.constraints_used)} access constraints "
            f"({', '.join(self.constraints_used)}), "
            f"{self.rows_output} answers",
        ]
        for comparison in self.comparisons:
            lines.append(
                f"{comparison.profile}: {comparison.seconds:.3f} s "
                f"({comparison.speedup:.0f}x slower), scanned "
                f"{comparison.tuples_scanned} tuples"
            )
        lines.append("-- BEAS per-operation breakdown --")
        for op in self.beas_operations:
            lines.append(
                f"  {op.label}: {op.tuples_in} -> {op.tuples_out} rows, "
                f"{op.seconds * 1000:.3f} ms"
            )
        return "\n".join(lines)


class PerformanceAnalyzer:
    """Runs a covered query on BEAS and on each comparator profile."""

    def __init__(
        self,
        catalog: ASCatalog,
        run: Optional[Callable[[AnyBoundedPlan], QueryResult]] = None,
    ):
        """``run`` runs the covered query's bounded plan (BEAS passes its
        runner); the default interprets it in-process."""
        self._catalog = catalog
        self._checker = BoundedEvaluabilityChecker(
            catalog.database.schema, catalog.schema
        )
        self._run = run or BoundedPlanExecutor(catalog).execute

    def analyze(
        self,
        query: Union[str, ast.Statement],
        profiles: Sequence[EngineProfile] = (POSTGRESQL, MYSQL, MARIADB),
        *,
        expected_rows: Optional[set] = None,
    ) -> PerformanceAnalysis:
        decision = self._checker.check(query)
        if not decision.covered:
            raise NotCoveredError(
                "performance analysis requires a covered query", decision.reasons
            )
        result = self._run(decision.plan)
        beas_rows = set(result.rows)
        if expected_rows is not None and beas_rows != expected_rows:
            raise AssertionError("BEAS answers differ from the expected rows")

        analysis = PerformanceAnalysis(
            query=query if isinstance(query, str) else str(query),
            beas_seconds=result.metrics.seconds,
            tuples_fetched=result.metrics.tuples_fetched,
            access_bound=decision.access_bound or 0,
            constraints_used=[c.name for c in decision.constraints_used],
            rows_output=len(result.rows),
            beas_operations=list(result.metrics.operations),
        )
        for profile in profiles:
            engine = ConventionalEngine(self._catalog.database, profile)
            conventional = engine.execute(query)
            speedup = (
                conventional.metrics.seconds / result.metrics.seconds
                if result.metrics.seconds > 0
                else float("inf")
            )
            analysis.comparisons.append(
                EngineComparison(
                    profile=profile.name,
                    seconds=conventional.metrics.seconds,
                    speedup=speedup,
                    tuples_scanned=conventional.metrics.tuples_scanned,
                    rows_output=len(conventional.rows),
                    operations=list(conventional.metrics.operations),
                )
            )
        return analysis
