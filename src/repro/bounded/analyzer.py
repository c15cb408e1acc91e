"""Performance analysis à la Fig. 3 of the paper.

After a query runs, the demo's analyzer panel reports "(a) the overall
execution time, acceleration ratio compared to commercial DBMS, the total
number of tuples fetched and the number of access constraints employed;
and (b) a breakdown of the cost to each individual operation in the query
plan, compared to its counterpart in plans generated by commercial DBMS".
:class:`PerformanceAnalyzer` produces that panel with one comparator, the
in-process conventional engine, measured: it runs the bounded plan once
and the conventional engine once. The paper's PostgreSQL / MySQL /
MariaDB ratios are not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.access.catalog import ASCatalog
from repro.errors import NotCoveredError
from repro.sql import ast
from repro.engine.executor import ConventionalEngine, QueryResult
from repro.engine.metrics import OperationCost
from repro.bounded.coverage import BoundedEvaluabilityChecker, CoverageDecision
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.plan import AnyBoundedPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.bounded.rebind import Decision


@dataclass
class EngineComparison:
    """The conventional engine's row of the analysis panel."""

    seconds: float
    speedup: float  # conventional seconds / BEAS seconds
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
    conventional: EngineComparison
    beas_operations: list[OperationCost] = field(default_factory=list)

    def describe(self) -> str:
        conventional = self.conventional
        lines = [
            f"BEAS: {self.beas_seconds * 1000:.2f} ms, "
            f"{self.tuples_fetched} tuples fetched "
            f"(bound {self.access_bound}), "
            f"{len(self.constraints_used)} access constraints "
            f"({', '.join(self.constraints_used)}), "
            f"{self.rows_output} answers",
            f"conventional: {conventional.seconds:.3f} s "
            f"({conventional.speedup:.0f}x slower), scanned "
            f"{conventional.tuples_scanned} tuples",
            "-- BEAS per-operation breakdown --",
        ]
        for op in self.beas_operations:
            lines.append(
                f"  {op.label}: {op.tuples_in} -> {op.tuples_out} rows, "
                f"{op.seconds * 1000:.3f} ms"
            )
        return "\n".join(lines)


class PerformanceAnalyzer:
    """Runs a covered query on BEAS and on the conventional engine."""

    def __init__(
        self,
        catalog: ASCatalog,
        run: Optional[Callable[[AnyBoundedPlan], QueryResult]] = None,
        host: Optional[ConventionalEngine] = None,
    ):
        """``run`` runs the covered query's bounded plan and ``host`` is
        the conventional engine (BEAS passes its runner and its host
        engine, whose statistics it keeps per table version); the
        defaults interpret the plan in-process and build an engine."""
        self._catalog = catalog
        self._run = run or BoundedPlanExecutor(catalog).execute
        self._host = host or ConventionalEngine(catalog.database)

    def analyze(
        self,
        query: Union[str, ast.Statement],
        decision: Union["Decision", CoverageDecision, None] = None,
    ) -> PerformanceAnalysis:
        """The panel for ``query`` under its ``decision``, checked here
        when none is given."""
        if decision is None:
            catalog = self._catalog
            decision = BoundedEvaluabilityChecker(
                catalog.database.schema, catalog.schema
            ).check(query)
        if not decision.covered:
            raise NotCoveredError(
                "performance analysis requires a covered query", decision.reasons
            )
        result = self._run(decision.plan)
        self._host.statistics()  # offline ANALYZE, as a DBMS has it: not query time
        conventional = self._host.execute(query)
        speedup = (
            conventional.metrics.seconds / result.metrics.seconds
            if result.metrics.seconds > 0
            else float("inf")
        )
        return PerformanceAnalysis(
            query=query if isinstance(query, str) else str(query),
            beas_seconds=result.metrics.seconds,
            tuples_fetched=result.metrics.tuples_fetched,
            access_bound=decision.access_bound or 0,
            constraints_used=[c.name for c in decision.constraints_used],
            rows_output=len(result.rows),
            conventional=EngineComparison(
                seconds=conventional.metrics.seconds,
                speedup=speedup,
                tuples_scanned=conventional.metrics.tuples_scanned,
                rows_output=len(conventional.rows),
                operations=list(conventional.metrics.operations),
            ),
            beas_operations=list(result.metrics.operations),
        )
