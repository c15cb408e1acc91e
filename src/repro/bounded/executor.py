"""BE Plan Executor: run bounded plans against the AS catalog's indices.

The executor extends the host engine's physical operator set with the
``fetch`` operator (paper §3): data is accessed exclusively through the
modified hash indices of the access schema — base tables are never
scanned. After the fetch/select pipeline produces the final intermediate,
the conventional engine's tail operators (aggregate, sort, project,
distinct, limit) finish the job, which is exactly how the paper describes
BEAS sitting on top of a DBMS's physical plan implementation: ``fetch``
is the one operator BEAS adds, and the host's own operators do the rest.

The accounting is the paper's, where the plan of Example 2 "still
accesses over 12 million tuples": every intermediate row presents its
key to the index, repeated keys included, and ``tuples_fetched`` counts
every tuple those keys fetch.

The resource-bounded approximation (paper §2/§3) is the same row
pipeline run under a :class:`TupleBudget`: a fetch takes a key's whole
bucket or none of it, and once the budget is exhausted drops every later
key without presenting it; the run answers as a set, and
:class:`~repro.bounded.approximation.BoundedApproximator` turns the
keys dropped per fetch into its recall bound.

Two execution modes share the same plans, bounds, and accounting, and
differ only in how a fetch lays out its output:

* ``executor="row"`` (default) materialises row-tuple intermediates;
* ``executor="columnar"`` runs the fetch/select pipeline over
  per-attribute columns (``engine.columnar``): a fetch gathers index
  postings for a whole key batch and builds its output column by column,
  and a selection only shrinks a selection vector. ``rows_per_batch``
  sizes the batches ``ExecutionMetrics.batches`` counts (fetch inputs).

Everything past the fetch is one implementation: a filter select runs
the skeleton's one compiled predicate over each live row's tuple, and
the final intermediate, materialised as rows, goes into the same
prepared tail the row mode runs. So the two modes agree on rows, row
order, per-operation counts (under LIMIT too) and errors by
construction. Both modes present exactly the same keys to the indices
in the same order, so ``tuples_fetched`` and the per-fetch bound
enforcement are identical as well — the paper's §3 bound arithmetic
holds unchanged. NULL semantics (both modes): a fetch key with a NULL
part never matches any index entry (SQL three-valued logic — an
equality against NULL is UNKNOWN), whether the part comes from a
materialised column or an enumerated constant, so such a key is never
presented at all.

Neither mode interprets the plan per request: what depends on the plan's
shape alone — key layouts, label lists, select positions and predicates,
the compiled tail — comes from the plan's skeleton
(:mod:`repro.bounded.skeleton`), compiled once per plan; a run pairs
each step with the plan's operator for the bound and reads every fetch
key, selection value and selection label from the request's constant
vector. A rebound request runs the pinned plan with its own vector, so
no per-binding copy of the plan exists on that path.

This class is the in-process interpreter only. Which route a plan takes
— in-process row or columnar, a pool worker, a fleet replica — is decided
and dispatched in :mod:`repro.engine.router`; the remote routes run this
same interpreter, in columnar mode, on the peer.

Because the indices are the only way in, an answer's *read set* is small
and enumerable: the keys each fetch presented. Both modes record them
per access constraint — one list append per presented key, empty
buckets included, nothing per fetched tuple — and hand them back on
``QueryResult.read_set``; the serving layer's result cache keeps an
answer until a write changes one of those buckets.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.access.catalog import ASCatalog
from repro.config import (
    DEFAULT_ROWS_PER_BATCH,
    validate_executor,
    validate_rows_per_batch,
)
from repro.errors import ExecutionError
from repro.engine.columnar import ColumnarIntermediate
from repro.engine.executor import QueryResult, ReadSet
from repro.engine.logical import MaterializedNode, SetOpNode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PhysicalExecutor
from repro.bounded.plan import AnyBoundedPlan, BoundedPlan, FetchOp, SetOpPlan
from repro.bounded.skeleton import (
    Constants,
    PlanSkeleton,
    _KeyPlan,
    _SelectPlan,
    skeleton_of,
)


class TupleBudget:
    """The tuples one resource-bounded run may still fetch, and the keys
    each of its fetches dropped (in plan order): what
    :meth:`BoundedPlanExecutor.execute` spends when it is handed one."""

    __slots__ = ("remaining", "dropped")

    def __init__(self, tuples: int) -> None:
        self.remaining = tuples
        self.dropped: list[int] = []


class BoundedPlanExecutor:
    """Executes bounded plans; the only data access is via access indices."""

    def __init__(
        self,
        catalog: ASCatalog,
        *,
        executor: str = "row",
        rows_per_batch: int = DEFAULT_ROWS_PER_BATCH,
    ):
        self._catalog = catalog
        self.executor = validate_executor(executor)
        self.rows_per_batch = validate_rows_per_batch(rows_per_batch)

    # ------------------------------------------------------------------ #
    def execute(
        self,
        plan: AnyBoundedPlan,
        constants: Optional[Constants] = None,
        budget: Optional[TupleBudget] = None,
    ) -> QueryResult:
        """Run ``plan``; ``constants`` is the constant vector to run it
        with (a rebound request's), or None for the plan's own. A run
        handed a ``budget`` spends it: it takes the row pipeline in
        either mode and answers as a set."""
        metrics = ExecutionMetrics()
        start = time.perf_counter()
        read_set: ReadSet = {}
        intermediate = self._run(plan, constants, metrics, read_set, budget)
        metrics.seconds = time.perf_counter() - start
        metrics.rows_output = len(intermediate.rows)
        columns = [
            label if isinstance(label, str) else str(label)
            for label in intermediate.labels
        ]
        return QueryResult(
            columns=columns,
            rows=intermediate.rows,
            metrics=metrics,
            read_set=read_set,
        )

    def _run(
        self,
        plan: AnyBoundedPlan,
        constants: Optional[Constants],
        metrics: ExecutionMetrics,
        read_set: ReadSet,
        budget: Optional[TupleBudget] = None,
    ) -> Intermediate:
        """``read_set`` gains every key the plan presents (a set
        operation's is the union of its branches')."""
        if isinstance(plan, SetOpPlan):
            left = self._run(plan.left, None, metrics, read_set)
            right = self._run(plan.right, None, metrics, read_set)
            node = SetOpNode(
                plan.op,
                MaterializedNode(left.labels, left.rows),
                MaterializedNode(right.labels, right.rows),
                plan.all,
            )
            return PhysicalExecutor(self._catalog.database, metrics).run(node)
        skeleton = skeleton_of(plan)
        if constants is None:
            constants = skeleton.constants(plan)
        if self.executor == "columnar" and budget is None:
            return self._run_select_columnar(
                plan, skeleton, constants, metrics, read_set
            )
        return self._run_select(plan, skeleton, constants, metrics, read_set, budget)

    # ------------------------------------------------------------------ #
    # row mode
    # ------------------------------------------------------------------ #
    def _run_select(
        self,
        plan: BoundedPlan,
        skeleton: PlanSkeleton,
        constants: Constants,
        metrics: ExecutionMetrics,
        read_set: ReadSet,
        budget: Optional[TupleBudget],
    ) -> Intermediate:
        rows: list[tuple] = [()]
        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                presented = read_set.setdefault(op.constraint.name, [])
                rows = self._fetch(
                    step, op, constants, rows, metrics, presented, budget
                )
            else:
                start = time.perf_counter()
                kept = step.keep(constants, rows)
                metrics.record(
                    step.label(constants),
                    len(rows),
                    len(kept),
                    time.perf_counter() - start,
                )
                rows = kept
        # hand the final intermediate to the conventional tail operators
        return skeleton.tail(plan, as_set=budget is not None).run(rows, metrics)

    # ------------------------------------------------------------------ #
    def _fetch(
        self,
        key_plan: _KeyPlan,
        op: FetchOp,
        constants: Constants,
        rows: list[tuple],
        metrics: ExecutionMetrics,
        presented: list[tuple],
        budget: Optional[TupleBudget],
    ) -> list[tuple]:
        """Under ``budget`` a key's whole bucket is taken or none of it:
        the first key whose bucket would overrun what is left exhausts the
        budget, and it and every later key are dropped — a later one is
        never presented — and counted in ``budget.dropped``."""
        start = time.perf_counter()
        fetch = self._catalog.index_for(op.constraint).fetch
        present = presented.append
        const_keys = key_plan.const_keys(constants)
        keys_for, pick_x, pick_y = key_plan.keys_for, key_plan.pick_x, key_plan.pick_y
        y_existing = key_plan.y_existing

        limit = sys.maxsize if budget is None else budget.remaining
        fetched = dropped = 0
        out_rows: list[tuple] = []
        for row in rows:
            for key_tuple in keys_for(row, const_keys):
                if dropped:
                    dropped += 1
                    continue
                present(key_tuple)
                bucket = fetch(key_tuple)
                if not bucket:
                    continue
                if fetched + len(bucket) > limit:
                    dropped = 1
                    continue
                fetched += len(bucket)
                prefix = row + pick_x(key_tuple)
                for y_value in bucket:
                    # consistency with already-materialised Y columns
                    if y_existing and any(
                        y_value[i] != row[pos] for i, pos in y_existing
                    ):
                        continue
                    out_rows.append(prefix + pick_y(y_value))

        self._enforce_bound(op, fetched)
        if budget is not None:
            budget.remaining -= fetched
            budget.dropped.append(dropped)
        metrics.tuples_fetched += fetched
        metrics.intermediate_rows += len(out_rows)
        metrics.record(
            key_plan.label, len(rows), len(out_rows), time.perf_counter() - start
        )
        return out_rows

    # ------------------------------------------------------------------ #
    # columnar mode
    # ------------------------------------------------------------------ #
    def _run_select_columnar(
        self,
        plan: BoundedPlan,
        skeleton: PlanSkeleton,
        constants: Constants,
        metrics: ExecutionMetrics,
        read_set: ReadSet,
    ) -> Intermediate:
        metrics.rows_per_batch = self.rows_per_batch
        intermediate = ColumnarIntermediate.seed()
        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                presented = read_set.setdefault(op.constraint.name, [])
                intermediate = self._fetch_columnar(
                    step, op, constants, intermediate, metrics, presented
                )
            else:
                intermediate = self._select_columnar(
                    step, constants, intermediate, metrics
                )
        # the row mode's conventional tail, over the live rows
        return skeleton.tail(plan).run(intermediate.to_rows(), metrics)

    # ------------------------------------------------------------------ #
    def _fetch_columnar(
        self,
        key_plan: _KeyPlan,
        op: FetchOp,
        constants: Constants,
        intermediate: ColumnarIntermediate,
        metrics: ExecutionMetrics,
        presented: list[tuple],
    ) -> ColumnarIntermediate:
        """Batch fetch: resolve every live row's keys, gather the index
        postings, then materialise the output column by column (no
        per-row tuples). The keys, the accounting and the read set are
        the row fetch's exactly."""
        start = time.perf_counter()
        fetch = self._catalog.index_for(op.constraint).fetch
        present = presented.append
        columns = intermediate.columns
        live = intermediate.live
        const_keys = key_plan.const_keys(constants)
        keys_at, x_new, y_new = key_plan.keys_at, key_plan.x_new, key_plan.y_new
        y_existing = key_plan.y_existing

        fetched = 0
        # one gather position per output row (skipped entirely when there
        # are no input columns to replicate), plus the new columns' values
        track_gather = bool(columns)
        gather: list[int] = []
        x_columns: list[list] = [[] for _ in x_new]
        y_columns: list[list] = [[] for _ in y_new]
        out_count = 0
        for i in live:
            for key in keys_at(columns, i, const_keys):
                present(key)
                bucket = fetch(key)
                if not bucket:
                    continue
                fetched += len(bucket)
                if y_existing:
                    bucket = [
                        y_value
                        for y_value in bucket
                        # beaslint: ok(null-guard) - the same attribute of the same tuple occurrence, fetched a second time: an identity check, not an SQL predicate, so NULL matches NULL exactly as in the row executor
                        if all(y_value[j] == columns[slot][i] for j, slot in y_existing)
                    ]
                    if not bucket:
                        continue
                matches = len(bucket)
                out_count += matches
                if track_gather:
                    gather.extend([i] * matches)
                for column, j in zip(x_columns, x_new):
                    column.extend([key[j]] * matches)
                for column, j in zip(y_columns, y_new):
                    column.extend([y_value[j] for y_value in bucket])
        # batches: the input counted in rows_per_batch-row batches
        metrics.batches += -(-len(live) // self.rows_per_batch)

        self._enforce_bound(op, fetched)
        out_columns = (
            [[column[g] for g in gather] for column in columns] + x_columns + y_columns
        )
        metrics.tuples_fetched += fetched
        metrics.intermediate_rows += out_count
        metrics.record(
            key_plan.label, len(live), out_count, time.perf_counter() - start
        )
        return ColumnarIntermediate(key_plan.labels, out_columns, out_count)

    # ------------------------------------------------------------------ #
    def _select_columnar(
        self,
        step: _SelectPlan,
        constants: Constants,
        intermediate: ColumnarIntermediate,
        metrics: ExecutionMetrics,
    ) -> ColumnarIntermediate:
        start = time.perf_counter()
        rows_in = intermediate.live_count
        sel = step.keep_columnar(constants, intermediate)
        metrics.record(
            step.label(constants), rows_in, len(sel), time.perf_counter() - start
        )
        return ColumnarIntermediate(
            intermediate.labels, intermediate.columns, intermediate.count, sel=sel
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _enforce_bound(op: FetchOp, fetched: int) -> None:
        if fetched > op.access_bound:
            raise ExecutionError(
                f"fetch {op.constraint.name} accessed {fetched} tuples, "
                f"exceeding its deduced bound {op.access_bound}; "
                "the dataset no longer conforms to the access schema"
            )
