"""BE Plan Executor: run bounded plans against the AS catalog's indices.

The executor extends the host engine's physical operator set with the
``fetch`` operator (paper §3): data is accessed exclusively through the
modified hash indices of the access schema — base tables are never
scanned. After the fetch/select pipeline produces the final intermediate,
the conventional engine's tail operators (aggregate, sort, project,
distinct, limit) finish the job, which is exactly how the paper describes
BEAS sitting on top of a DBMS's physical plan implementation.

``dedup_keys=False`` (default) mirrors the paper's accounting, where the
plan of Example 2 "still accesses over 12 million tuples": every
intermediate row presents its key to the index. ``dedup_keys=True``
fetches each distinct key once — an optimisation the paper's bound
arithmetic does not assume (ablation bench A1).

Two execution modes share the same plans, bounds, and accounting:

* ``executor="row"`` (default) materialises row-tuple intermediates;
* ``executor="columnar"`` runs the pipeline over per-attribute column
  batches (``engine.columnar``): fetches gather index postings for a
  whole key batch and build the output column by column, selections only
  shrink a selection vector, and the tail operators stream batches of
  ``rows_per_batch`` rows (``engine.physical.ColumnarTail``).

Both modes present exactly the same keys to the indices in the same
order, so ``tuples_fetched``, the per-fetch bound enforcement, and the
``dedup_keys`` semantics are identical by construction — the paper's §3
bound arithmetic holds unchanged. NULL semantics (both modes): a fetch
key with a NULL part never matches any index entry (SQL three-valued
logic — an equality against NULL is UNKNOWN), whether the part comes
from a materialised column or an enumerated constant, and key dedup
never conflates distinct NULL-bearing keys because such keys are never
presented at all.

Neither mode interprets the plan per request: what depends on the plan's
shape alone — key layouts, label lists, select positions and predicates,
the compiled tail — comes from the plan's skeleton
(:mod:`repro.bounded.skeleton`), compiled by the first execution and
shared by every rebinding; a run pairs each step with the request's own
operator for the constants and the bound.

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

import time
from typing import Optional

from repro.access.catalog import ASCatalog
from repro.errors import ExecutionError
from repro.engine.columnar import (
    ColumnarIntermediate,
    resolve_executor_mode,
    resolve_rows_per_batch,
    run_fetch_chunk,
)
from repro.engine.executor import QueryResult, ReadSet
from repro.engine.logical import MaterializedNode, SetOpNode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PhysicalExecutor
from repro.engine.profiles import EngineProfile
from repro.bounded.plan import AnyBoundedPlan, BoundedPlan, FetchOp, SelectOp, SetOpPlan
from repro.bounded.skeleton import _KeyPlan, _SelectPlan, skeleton_of

_NEUTRAL_PROFILE = EngineProfile(name="beas-tail", join_algorithm="hash", row_overhead=0)


class BoundedPlanExecutor:
    """Executes bounded plans; the only data access is via access indices."""

    def __init__(
        self,
        catalog: ASCatalog,
        *,
        dedup_keys: bool = False,
        executor: Optional[str] = None,
        rows_per_batch: Optional[int] = None,
    ):
        self._catalog = catalog
        self._dedup_keys = dedup_keys
        self.executor = resolve_executor_mode(executor)
        self.rows_per_batch = resolve_rows_per_batch(rows_per_batch)

    # ------------------------------------------------------------------ #
    def execute(self, plan: AnyBoundedPlan) -> QueryResult:
        metrics = ExecutionMetrics()
        if self.executor == "columnar":
            metrics.rows_per_batch = self.rows_per_batch
        start = time.perf_counter()
        read_set: ReadSet = {}
        intermediate = self._run(plan, metrics, read_set)
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
        self, plan: AnyBoundedPlan, metrics: ExecutionMetrics, read_set: ReadSet
    ) -> Intermediate:
        """``read_set`` gains every key the plan presents (a set
        operation's is the union of its branches')."""
        if isinstance(plan, SetOpPlan):
            left = self._run(plan.left, metrics, read_set)
            right = self._run(plan.right, metrics, read_set)
            node = SetOpNode(
                plan.op,
                MaterializedNode(left.labels, left.rows),
                MaterializedNode(right.labels, right.rows),
                plan.all,
            )
            executor = PhysicalExecutor(
                self._catalog.database, _NEUTRAL_PROFILE, metrics
            )
            return executor.run(node)
        if self.executor == "columnar":
            return self._run_select_columnar(plan, metrics, read_set)
        return self._run_select(plan, metrics, read_set)

    # ------------------------------------------------------------------ #
    # row mode
    # ------------------------------------------------------------------ #
    def _run_select(
        self, plan: BoundedPlan, metrics: ExecutionMetrics, read_set: ReadSet
    ) -> Intermediate:
        skeleton = skeleton_of(plan)
        rows: list[tuple] = [()]
        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                presented = read_set.setdefault(op.constraint.name, [])
                rows = self._fetch(step, op, rows, metrics, presented)
            else:
                start = time.perf_counter()
                kept = step.keep(op, rows)
                metrics.record(
                    step.label(op), len(rows), len(kept), time.perf_counter() - start
                )
                rows = kept
        # hand the final intermediate to the conventional tail operators
        return skeleton.tail(plan).run(rows, metrics)

    # ------------------------------------------------------------------ #
    def _fetch(
        self,
        key_plan: _KeyPlan,
        op: FetchOp,
        rows: list[tuple],
        metrics: ExecutionMetrics,
        presented: list[tuple],
    ) -> list[tuple]:
        start = time.perf_counter()
        fetch = self._catalog.index_for(op.constraint).fetch
        present = presented.append
        const_keys = key_plan.const_keys(op)
        keys_for, pick_x, pick_y = key_plan.keys_for, key_plan.pick_x, key_plan.pick_y
        y_existing = key_plan.y_existing

        cache: Optional[dict[tuple, list[tuple]]] = {} if self._dedup_keys else None
        fetched = 0
        out_rows: list[tuple] = []
        for row in rows:
            for key_tuple in keys_for(row, const_keys):
                if cache is None:
                    present(key_tuple)
                    bucket = fetch(key_tuple)
                    fetched += len(bucket)
                elif key_tuple in cache:
                    bucket = cache[key_tuple]
                else:
                    present(key_tuple)
                    bucket = cache[key_tuple] = fetch(key_tuple)
                    fetched += len(bucket)
                if not bucket:
                    continue
                prefix = row + pick_x(key_tuple)
                for y_value in bucket:
                    # consistency with already-materialised Y columns
                    if y_existing and any(
                        y_value[i] != row[pos] for i, pos in y_existing
                    ):
                        continue
                    out_rows.append(prefix + pick_y(y_value))

        self._enforce_bound(op, fetched)
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
        self, plan: BoundedPlan, metrics: ExecutionMetrics, read_set: ReadSet
    ) -> Intermediate:
        skeleton = skeleton_of(plan)
        intermediate = ColumnarIntermediate.seed()
        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                presented = read_set.setdefault(op.constraint.name, [])
                intermediate = self._fetch_columnar(
                    step, op, intermediate, metrics, presented
                )
            else:
                intermediate = self._select_columnar(step, op, intermediate, metrics)
        # the same conventional tail, interpreted batch-wise
        return skeleton.tail(plan, columnar=True).run(
            intermediate, metrics, self.rows_per_batch
        )

    # ------------------------------------------------------------------ #
    def _fetch_columnar(
        self,
        key_plan: _KeyPlan,
        op: FetchOp,
        intermediate: ColumnarIntermediate,
        metrics: ExecutionMetrics,
        presented: list[tuple],
    ) -> ColumnarIntermediate:
        """Batch fetch: resolve the key batch, gather all postings, then
        materialise the output column by column (no per-row tuples)."""
        start = time.perf_counter()
        index = self._catalog.index_for(op.constraint)
        columns = intermediate.columns
        rows_in = intermediate.live_count
        # one gather position per output row (skipped entirely when there
        # are no input columns to replicate), plus the new columns' values
        spec = key_plan.chunk_spec(op, track_gather=bool(columns))
        cache: Optional[dict] = {} if self._dedup_keys else None
        results = [
            run_fetch_chunk(index.fetch, spec, columns, chunk, cache, presented)
            for chunk in intermediate.iter_batches(self.rows_per_batch)
        ]
        metrics.batches += len(results)
        fetched = sum(result.fetched for result in results)
        gather = [g for result in results for g in result.gather]

        out_count = sum(result.out_count for result in results)
        new_x_columns = [
            [value for result in results for value in result.x_columns[k]]
            for k in range(len(key_plan.x_new))
        ]
        new_y_columns = [
            [value for result in results for value in result.y_columns[k]]
            for k in range(len(key_plan.y_new))
        ]

        self._enforce_bound(op, fetched)
        out_columns = [
            [column[g] for g in gather] for column in columns
        ] + new_x_columns + new_y_columns
        metrics.tuples_fetched += fetched
        metrics.intermediate_rows += out_count
        metrics.record(key_plan.label, rows_in, out_count, time.perf_counter() - start)
        return ColumnarIntermediate(key_plan.labels, out_columns, out_count)

    # ------------------------------------------------------------------ #
    def _select_columnar(
        self,
        step: _SelectPlan,
        op: SelectOp,
        intermediate: ColumnarIntermediate,
        metrics: ExecutionMetrics,
    ) -> ColumnarIntermediate:
        start = time.perf_counter()
        rows_in = intermediate.live_count
        sel = step.keep_columnar(op, intermediate.columns, intermediate.live)
        metrics.record(step.label(op), rows_in, len(sel), time.perf_counter() - start)
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
