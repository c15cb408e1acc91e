"""BE Plan Optimizer: partially bounded plans for non-covered queries.

Paper §3: *"BE Plan Optimizer improves the conventional plan of the DBMS
for Q when Q is not bounded ... It identifies sub-queries of Q that are
boundedly evaluable under access schema A, and speeds up the evaluation of
Q by capitalizing on the indices of A."*

The optimizer runs the plan generator's greedy loop without backtracking;
whatever subset ``C`` of occurrences it manages to cover becomes a bounded
sub-plan. The sub-plan's result is materialised as a temporary relation,
and the *residual* query — the uncovered occurrences joined with the
temporary relation — runs on the conventional engine. Scans of the covered
relations are thereby replaced with index fetches, which is exactly the
speed-up the paper describes.

The residual plan is a hash join of the temporary relation with the
uncovered scans, and the conventional engine passes a hash join's build
keys sideways into a scan on its probe side (:mod:`repro.engine.physical`):
an uncovered relation is read once, and only its tuples that join the
prefix are interpreted.

Soundness of the splice requires the temporary relation to carry correct
multiplicities into the residual join: we therefore only splice when the
final query is duplicate-insensitive (DISTINCT, or only MIN/MAX/COUNT-
DISTINCT-style aggregates) or when the bounded sub-plan is bag-exact.
Otherwise the optimizer falls back to the fully conventional plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.access.catalog import ASCatalog
from repro.catalog.schema import Column, TableSchema
from repro.catalog.statistics import TableStatistics
from repro.errors import NormalizationError, SQLError
from repro.sql import ast
from repro.sql.normalize import (
    Attribute,
    ConjunctiveQuery,
    OutputItem,
    ResolvedPredicate,
    normalize,
)
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.table import Table
from repro.engine.executor import QueryResult
from repro.engine.logical import PlanNode
from repro.engine.physical import PhysicalExecutor
from repro.engine.planner import plan_conjunctive_query
from repro.engine.profiles import EngineProfile, POSTGRESQL
from repro.bounded.coverage import duplicate_sensitive_calls
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.plan import BoundedPlan
from repro.bounded.planner import BoundedPlanGenerator

_TEMP = "__bounded__"


def _substitute(expr: ast.Expression, mapping: dict[Attribute, Attribute]) -> ast.Expression:
    """Rewrite column references according to ``mapping``."""
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None:
            replacement = mapping.get(Attribute(expr.table, expr.name))
            if replacement is not None:
                return ast.ColumnRef(replacement.column, table=replacement.binding)
        return expr
    if isinstance(expr, (ast.Literal, ast.Star)):
        return expr
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op, _substitute(expr.left, mapping), _substitute(expr.right, mapping)
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _substitute(expr.operand, mapping))
    if isinstance(expr, ast.InList):
        return ast.InList(
            _substitute(expr.operand, mapping),
            tuple(_substitute(i, mapping) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _substitute(expr.operand, mapping),
            _substitute(expr.low, mapping),
            _substitute(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            _substitute(expr.operand, mapping),
            _substitute(expr.pattern, mapping),
            expr.negated,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_substitute(expr.operand, mapping), expr.negated)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(_substitute(a, mapping) for a in expr.args),
            expr.distinct,
        )
    return expr  # pragma: no cover


@dataclass
class PartialPlan:
    """A bounded prefix + a residual conventional query."""

    covered_bindings: list[str]
    uncovered_bindings: list[str]
    sub_plan: BoundedPlan
    sub_plan_bag_exact: bool
    residual_cq: ConjunctiveQuery
    temp_schema: TableSchema
    mapping: dict[Attribute, Attribute]

    @property
    def access_bound(self) -> int:
        return self.sub_plan.access_bound

    @property
    def sideways_scans(self) -> dict[str, list[str]]:
        """Uncovered binding -> its columns equated with the prefix: the
        residual scans whose join with the temporary relation hands them
        the prefix's keys."""
        scans: dict[str, list[str]] = {}
        for left, right in self.residual_cq.equalities:
            if right.binding == _TEMP:
                left, right = right, left
            if left.binding == _TEMP and right.binding != _TEMP:
                scans.setdefault(right.binding, []).append(right.column)
        return scans

    def describe(self) -> str:
        text = (
            f"partially bounded plan: bounded prefix covers "
            f"{{{', '.join(self.covered_bindings)}}} "
            f"(<= {self.sub_plan.access_bound} tuples via "
            f"{len(self.sub_plan.fetch_ops)} fetches); conventional residual "
            f"over {{{', '.join(self.uncovered_bindings) or 'none'}}}"
        )
        for binding, columns in self.sideways_scans.items():
            text += (
                f"; the prefix's keys go sideways into the scan of "
                f"{binding} (on {', '.join(columns)})"
            )
        return text


class BEPlanOptimizer:
    """Builds and executes partially bounded plans."""

    def __init__(self, catalog: ASCatalog, profile: EngineProfile = POSTGRESQL):
        self._catalog = catalog
        self._profile = profile
        self._generator = BoundedPlanGenerator(
            catalog.database.schema, catalog.schema
        )

    # ------------------------------------------------------------------ #
    def analyze(self, query: Union[str, ast.Statement]) -> Optional[PartialPlan]:
        """Find a bounded sub-query; None when no useful prefix exists."""
        try:
            statement = parse(query) if isinstance(query, str) else query
            if not isinstance(statement, ast.SelectStatement):
                return None
            cq = normalize(statement, self._catalog.database.schema)
        except (SQLError, NormalizationError):
            return None

        state, context = self._generator.greedy_prefix(cq)
        covered = sorted(state.covered)
        if not covered:
            return None
        uncovered = [b for b in cq.occurrences if b not in state.covered]

        sub_cq = self._build_sub_cq(cq, set(covered), context)
        sub_plan, reasons = self._generator.try_generate(sub_cq)
        if sub_plan is None:
            return None

        # multiplicity soundness of the splice (see module docstring):
        # the residual query must see correct multiplicities, so splice only
        # when the prefix is bag-exact or the query is duplicate-insensitive
        sensitive = bool(duplicate_sensitive_calls(cq))
        splice_ok = (
            sub_plan.bag_exact
            or cq.distinct
            or (cq.has_aggregates and not sensitive)
        )
        if not splice_ok:
            return None

        mapping, temp_schema = self._temp_layout(cq, set(covered))
        residual_cq = self._build_residual_cq(cq, set(covered), mapping, temp_schema)
        return PartialPlan(
            covered_bindings=covered,
            uncovered_bindings=uncovered,
            sub_plan=sub_plan,
            sub_plan_bag_exact=sub_plan.bag_exact,
            residual_cq=residual_cq,
            temp_schema=temp_schema,
            mapping=mapping,
        )

    # ------------------------------------------------------------------ #
    def execute(
        self,
        partial: PartialPlan,
        run_prefix: Optional[Callable[[BoundedPlan], QueryResult]] = None,
    ) -> QueryResult:
        """Run the bounded prefix, materialise it, and finish conventionally.

        ``run_prefix`` runs the prefix's bounded plan (BEAS passes its
        runner, pinned to the request's route); the default interprets
        it in-process.
        """
        start = time.perf_counter()
        if run_prefix is None:
            run_prefix = BoundedPlanExecutor(self._catalog).execute
        prefix_result = run_prefix(partial.sub_plan)

        temp_table = Table.from_trusted_rows(
            partial.temp_schema, map(tuple, prefix_result.rows)
        )
        # the residual reads its own relations only: the temporary one and
        # the uncovered occurrences' tables
        database = self._catalog.database
        overlay = Database(name="overlay")
        overlay.add_table(temp_table)
        scanned = frozenset(partial.residual_cq.occurrences.values()) - {_TEMP}
        for name in scanned:
            overlay.add_table(database.table(name))

        plan = self.residual_plan(partial, len(temp_table))
        # one metrics object for the whole answer: the residual's counters
        # add to whatever the prefix (pooled, fleet-run, ...) recorded
        metrics = prefix_result.metrics
        result = PhysicalExecutor(overlay, self._profile, metrics).run(plan)
        metrics.seconds = time.perf_counter() - start
        metrics.rows_output = len(result.rows)
        columns = [
            label if isinstance(label, str) else str(label)
            for label in result.labels
        ]
        # what the answer read: the prefix's buckets (unknown when the
        # prefix ran on a peer) and every row of the residual's relations
        return QueryResult(
            columns=columns,
            rows=result.rows,
            metrics=metrics,
            read_set=prefix_result.read_set,
            scanned_tables=scanned,
        )

    def residual_plan(
        self, partial: PartialPlan, temp_rows: Optional[int] = None
    ) -> PlanNode:
        """The residual's logical plan under row-count-only statistics:
        computing full column statistics per execution would dwarf the
        query itself, and the residual join graph is small enough that row
        counts suffice. ``temp_rows`` is the temporary relation's exact
        size at run time; before execution (``explain``) the prefix's
        deduced bound stands in for it."""
        if temp_rows is None:
            temp_rows = partial.access_bound
        database = self._catalog.database
        statistics = {
            name: TableStatistics(
                table=name,
                row_count=temp_rows if name == _TEMP else len(database.table(name)),
            )
            for name in set(partial.residual_cq.occurrences.values())
        }
        return plan_conjunctive_query(partial.residual_cq, statistics)

    # ------------------------------------------------------------------ #
    def _build_sub_cq(
        self, cq: ConjunctiveQuery, covered: set[str], context
    ) -> ConjunctiveQuery:
        """Project the query onto the covered occurrences.

        The sub-query outputs every attribute the *full* query needs from a
        covered occurrence, keeps equalities/filters internal to the
        covered set, and inherits constants through equality classes (a
        selection on an uncovered attribute still binds a covered one when
        they are equated).
        """
        occurrences = {b: cq.occurrences[b] for b in cq.occurrences if b in covered}
        output: list[OutputItem] = []
        for binding in occurrences:
            for column in sorted(cq.attributes_of(binding)):
                ref = ast.ColumnRef(column, table=binding)
                output.append(OutputItem(ref, f"{binding}__{column}"))

        selections: dict[Attribute, tuple] = {}
        for binding in occurrences:
            for column in cq.attributes_of(binding):
                attr = Attribute(binding, column)
                root = context.uf.find(attr)
                constants = context.class_constants.get(root)
                if constants is not None:
                    selections[attr] = constants

        equalities = [
            (a, b)
            for a, b in cq.equalities
            if a.binding in covered and b.binding in covered
        ]
        filters = [
            predicate
            for predicate in cq.filters
            if all(attr.binding in covered for attr in predicate.attributes)
        ]
        return ConjunctiveQuery(
            occurrences=occurrences,
            output=output,
            selections=selections,
            equalities=equalities,
            filters=filters,
        )

    # ------------------------------------------------------------------ #
    def _temp_layout(
        self, cq: ConjunctiveQuery, covered: set[str]
    ) -> tuple[dict[Attribute, Attribute], TableSchema]:
        mapping: dict[Attribute, Attribute] = {}
        columns: list[Column] = []
        db_schema = self._catalog.database.schema
        for binding in cq.occurrences:
            if binding not in covered:
                continue
            table_schema = db_schema.table(cq.occurrences[binding])
            for column in sorted(cq.attributes_of(binding)):
                name = f"{binding}__{column}"
                mapping[Attribute(binding, column)] = Attribute(_TEMP, name)
                columns.append(Column(name, table_schema.dtype(column)))
        return mapping, TableSchema(_TEMP, columns)

    def _build_residual_cq(
        self,
        cq: ConjunctiveQuery,
        covered: set[str],
        mapping: dict[Attribute, Attribute],
        temp_schema: TableSchema,
    ) -> ConjunctiveQuery:
        occurrences = {_TEMP: temp_schema.name}
        for binding, table in cq.occurrences.items():
            if binding not in covered:
                occurrences[binding] = table

        def remap(attr: Attribute) -> Attribute:
            return mapping.get(attr, attr)

        selections = {
            remap(attr): values
            for attr, values in cq.selections.items()
            if attr.binding not in covered  # covered ones already enforced
        }
        equalities = []
        for a, b in cq.equalities:
            if a.binding in covered and b.binding in covered:
                continue  # enforced inside the bounded prefix
            equalities.append((remap(a), remap(b)))
        filters = []
        for predicate in cq.filters:
            if all(attr.binding in covered for attr in predicate.attributes):
                continue  # applied inside the bounded prefix
            expression = _substitute(predicate.expression, mapping)
            filters.append(
                ResolvedPredicate(
                    expression,
                    frozenset(remap(attr) for attr in predicate.attributes),
                )
            )

        output = [
            OutputItem(_substitute(item.expression, mapping), item.name)
            for item in cq.output
        ]
        aggregates = [
            OutputItem(_substitute(item.expression, mapping), item.name)
            for item in cq.aggregates
        ]
        having = _substitute(cq.having, mapping) if cq.having is not None else None
        order_by = [
            ast.OrderItem(_substitute(o.expression, mapping), o.ascending)
            for o in cq.order_by
        ]
        group_by = [remap(attr) for attr in cq.group_by]
        return ConjunctiveQuery(
            occurrences=occurrences,
            output=output,
            selections=selections,
            equalities=equalities,
            filters=filters,
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            order_by=order_by,
            limit=cq.limit,
            offset=cq.offset,
            distinct=cq.distinct,
        )
