"""The conventional engine facade: SQL text in, rows out.

``ConventionalEngine`` is the stand-in for the host DBMS (PostgreSQL in
the paper's deployment) and the one baseline BEAS is measured against.
It answers any query in the supported fragment by scanning base tables
and hash-joining them, so its cost grows linearly with ``|D|`` — the
behaviour Fig. 4 contrasts with BEAS's flat line. It is one measured
engine: the paper's PostgreSQL / MySQL / MariaDB ratios are not
modelled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.catalog.statistics import TableStatistics
from repro.sql import ast
from repro.sql.normalize import normalize
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.engine.logical import PlanNode, SetOpNode, explain
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import PhysicalExecutor
from repro.engine.planner import plan_conjunctive_query


#: access-constraint name -> the X-keys presented to its index
ReadSet = dict[str, list[tuple]]


@dataclass
class QueryResult:
    """Result of one query: named columns, row tuples, and metrics.

    ``read_set`` is what the answer read of D when it is known exactly:
    per access constraint (by name), every X-key a bounded plan presented
    to that constraint's index, empty buckets included. The answer is a
    function of those buckets and of the rows of ``scanned_tables`` (the
    relations a partially bounded plan's residual scans) alone. ``None``
    means unknown: conventional evaluation, an answer computed on a pool
    worker or a fleet replica, an approximate answer.
    """

    columns: list[str]
    rows: list[tuple]
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    read_set: Optional[ReadSet] = None
    scanned_tables: frozenset[str] = frozenset()

    def to_set(self) -> set[tuple]:
        return set(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class ConventionalEngine:
    """Scan-based SQL engine over an in-memory :class:`Database`."""

    def __init__(self, database: Database):
        self.database = database
        self._stats_cache: dict[str, tuple[int, TableStatistics]] = {}

    # ------------------------------------------------------------------ #
    def statistics(
        self, tables: "set[str] | frozenset[str] | None" = None
    ) -> dict[str, TableStatistics]:
        """Per-table statistics, cached until the table is mutated.

        Keyed on :attr:`Table.version` (a monotonic mutation counter), not
        the row count: an insert+delete sequence that leaves the
        cardinality unchanged still invalidates, so engines created at any
        point — including after updates routed around the BEAS facade —
        always see fresh statistics.

        With ``tables``, only those relations are profiled. The sharded
        serving layer relies on this: a query holds read locks only on
        its own dependency tables, so planning it must not scan the rows
        of unrelated tables that may be mid-mutation.
        """
        stats: dict[str, TableStatistics] = {}
        for table in self.database:
            name = table.schema.name
            if tables is not None and name not in tables:
                continue
            cached = self._stats_cache.get(name)
            if cached is not None and cached[0] == table.version:
                stats[name] = cached[1]
            else:
                computed = table.statistics()
                self._stats_cache[name] = (table.version, computed)
                stats[name] = computed
        return stats

    # ------------------------------------------------------------------ #
    def plan(self, query: Union[str, ast.Statement]) -> PlanNode:
        """Build a logical plan without executing it."""
        statement = parse(query) if isinstance(query, str) else query
        return self._plan_statement(statement)

    def _plan_statement(self, statement: ast.Statement) -> PlanNode:
        if isinstance(statement, ast.SetOperation):
            left = self._plan_statement(statement.left)
            right = self._plan_statement(statement.right)
            return SetOpNode(statement.op, left, right, statement.all)
        cq = normalize(statement, self.database.schema)
        # the planner only consults statistics for the query's own tables
        return plan_conjunctive_query(
            cq, self.statistics(set(cq.occurrences.values()))
        )

    def explain(self, query: Union[str, ast.Statement]) -> str:
        return explain(self.plan(query))

    # ------------------------------------------------------------------ #
    def execute(self, query: Union[str, ast.Statement]) -> QueryResult:
        """Parse, plan, and execute ``query``; returns rows + metrics."""
        statement = parse(query) if isinstance(query, str) else query
        metrics = ExecutionMetrics()
        start = time.perf_counter()
        plan = self._plan_statement(statement)
        executor = PhysicalExecutor(self.database, metrics)
        result = executor.run(plan)
        metrics.seconds = time.perf_counter() - start
        metrics.rows_output = len(result.rows)
        columns = [
            label if isinstance(label, str) else str(label)
            for label in result.labels
        ]
        return QueryResult(columns=columns, rows=result.rows, metrics=metrics)
