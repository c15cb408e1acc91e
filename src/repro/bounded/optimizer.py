"""BE Plan Optimizer: partially bounded plans for non-covered queries.

Paper §3: *"BE Plan Optimizer improves the conventional plan of the DBMS
for Q when Q is not bounded ... It identifies sub-queries of Q that are
boundedly evaluable under access schema A, and speeds up the evaluation of
Q by capitalizing on the indices of A."*

The optimizer runs the plan generator's greedy loop without backtracking;
whatever subset ``C`` of occurrences it manages to cover becomes a bounded
sub-plan, the *prefix*. The rest of the query, the *residual*, is compiled
once with the plan (:class:`~repro.bounded.residual.Residual`): steps over
the prefix's rows that probe each uncovered relation's key index with the
keys already materialised (or scan a relation joined to none of them), and
the whole query's tail. Scans of the covered relations are thereby
replaced with index fetches, which is exactly the speed-up the paper
describes, and a scan of an uncovered one with probes of the buckets that
join the prefix.

Soundness of the splice requires the prefix's rows to carry correct
multiplicities into the residual join: we therefore only splice when the
final query is duplicate-insensitive (DISTINCT, or only MIN/MAX/COUNT-
DISTINCT-style aggregates) or when the bounded sub-plan is bag-exact.
Otherwise the optimizer falls back to the fully conventional plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.access.catalog import ASCatalog
from repro.errors import NormalizationError, SQLError
from repro.sql import ast
from repro.sql.normalize import Attribute, ConjunctiveQuery, OutputItem, normalize
from repro.sql.parser import parse
from repro.engine.executor import QueryResult
from repro.bounded.coverage import duplicate_sensitive_calls
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.plan import BoundedPlan
from repro.bounded.planner import BoundedPlanGenerator
from repro.bounded.residual import Residual
from repro.bounded.skeleton import Constants, skeleton_of


@dataclass
class PartialPlan:
    """A bounded prefix + the residual compiled for it. ``cq`` is the
    query the plan answers: a binding's slots are its selections, which
    is how a pinned plan is rebound by value (:mod:`repro.bounded.rebind`).
    ``residual`` is shared by every patched copy of the plan; it reads
    the selections' values from a constant vector, never from ``cq``."""

    covered_bindings: list[str]
    uncovered_bindings: list[str]
    sub_plan: BoundedPlan
    cq: ConjunctiveQuery
    residual: Residual = field(repr=False, compare=False)

    @property
    def sideways_scans(self) -> dict[str, list[str]]:
        """Uncovered binding -> the columns of the key index the residual
        probes it by, with the keys already materialised."""
        return {s.binding: [c for c, _ in s.key] for s in self.residual.steps if s.key}

    def describe(self) -> str:
        text = (
            f"partially bounded plan: bounded prefix covers "
            f"{{{', '.join(self.covered_bindings)}}} "
            f"(<= {self.sub_plan.access_bound} tuples via "
            f"{len(self.sub_plan.fetch_ops)} fetches); conventional residual "
            f"over {{{', '.join(self.uncovered_bindings) or 'none'}}}"
        )
        for binding, columns in self.sideways_scans.items():
            table = self.cq.occurrences[binding]
            text += (
                f"; the residual probes {table} as {binding} by its key "
                f"index on ({', '.join(columns)})"
            )
        return text


class BEPlanOptimizer:
    """Builds and executes partially bounded plans."""

    def __init__(self, catalog: ASCatalog):
        self._catalog = catalog
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

        # the prefix's rows: every attribute the whole query needs from a
        # covered occurrence
        labels = [
            Attribute(binding, column)
            for binding in cq.occurrences
            if binding in state.covered
            for column in sorted(cq.attributes_of(binding))
        ]
        sub_cq = self._build_sub_cq(cq, state.covered, labels, context)
        sub_plan, reasons = self._generator.try_generate(sub_cq)
        if sub_plan is None:
            return None

        # multiplicity soundness of the splice (see module docstring):
        # the residual must see correct multiplicities, so splice only
        # when the prefix is bag-exact or the query is duplicate-insensitive
        insensitive = cq.has_aggregates and not duplicate_sensitive_calls(cq)
        if not (sub_plan.bag_exact or cq.distinct or insensitive):
            return None

        residual = Residual(
            cq,
            labels,
            uncovered,
            len(skeleton_of(sub_plan).sites),
            self._catalog.database.schema,
        )
        return PartialPlan(covered, uncovered, sub_plan, cq, residual)

    # ------------------------------------------------------------------ #
    def execute(
        self,
        partial: PartialPlan,
        run_prefix: Optional[Callable[[BoundedPlan], QueryResult]] = None,
        constants: Optional[Constants] = None,
    ) -> QueryResult:
        """Run the bounded prefix and the residual compiled for it on the
        prefix's rows.

        ``run_prefix`` runs the prefix's bounded plan (BEAS passes its
        runner, pinned to the request's route); the default interprets
        it in-process. ``constants`` is a rebound request's constant
        vector, the prefix's followed by the residual's (None: the
        plan's own).
        """
        start = time.perf_counter()
        if run_prefix is None:
            run_prefix = BoundedPlanExecutor(self._catalog).execute
        prefix = run_prefix(partial.sub_plan)
        residual = partial.residual
        if constants is None:
            constants = residual.constants(partial.cq)
        else:
            constants = constants[residual.offset :]
        # one metrics object for the whole answer: the residual's counters
        # add to whatever the prefix (pooled, fleet-run, ...) recorded
        metrics = prefix.metrics
        result = residual.run(prefix.rows, constants, self._catalog.database, metrics)
        metrics.seconds = time.perf_counter() - start
        metrics.rows_output = len(result.rows)
        # what the answer depends on: the prefix's buckets (unknown when
        # the prefix ran on a peer) and every row of the residual's
        # relations (a probe reads some buckets, but any row may join)
        return QueryResult(
            columns=[str(label) for label in result.labels],
            rows=result.rows,
            metrics=metrics,
            read_set=prefix.read_set,
            scanned_tables=frozenset(
                partial.cq.occurrences[binding] for binding in partial.uncovered_bindings
            ),
        )

    # ------------------------------------------------------------------ #
    def _build_sub_cq(
        self,
        cq: ConjunctiveQuery,
        covered: set[str],
        labels: list[Attribute],
        context,
    ) -> ConjunctiveQuery:
        """Project the query onto the covered occurrences.

        The sub-query outputs ``labels`` — every attribute the *full* query
        needs from a covered occurrence — keeps equalities/filters internal to the
        covered set, and inherits constants through equality classes (a
        selection on an uncovered attribute still binds a covered one when
        they are equated).
        """
        occurrences = {b: cq.occurrences[b] for b in cq.occurrences if b in covered}
        output = [
            OutputItem(
                ast.ColumnRef(attr.column, table=attr.binding),
                f"{attr.binding}__{attr.column}",
            )
            for attr in labels
        ]
        selections: dict[Attribute, tuple] = {}
        for attr in labels:
            constants = context.class_constants.get(context.uf.find(attr))
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
