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

With an :class:`~repro.engine.pool.EnginePool` attached, the columnar
pipeline additionally runs **in parallel across worker processes**:
whole plans are shipped to one worker (``dispatch="plan"``), or each
fetch's input batches fan out across idle workers (``"batch"``;
``"auto"`` tries the plan route first). Per-worker fetch accounting is
merged deterministically (see :mod:`repro.engine.pool`), so the pooled
mode keeps the same bound arithmetic and ``dedup_keys`` semantics; the
cross-process differential suite (``tests/test_parallel_differential``)
locks all three modes together. Any pool failure falls back to
in-process execution — answers are never wrong, only slower.
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
)
from repro.engine.executor import QueryResult
from repro.engine.logical import MaterializedNode, SetOpNode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PhysicalExecutor
from repro.engine.pool import (
    EnginePool,
    merge_dedup_counts,
    resolve_dispatch,
    run_fetch_chunk,
)
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
        pool=None,
        dispatch: Optional[str] = None,
        fleet=None,
    ):
        """``pool`` is an :class:`~repro.engine.pool.EnginePool`, a
        zero-argument provider returning one (or ``None``) — BEAS passes
        a provider so workers fork only when pooled work actually runs —
        or ``None`` for in-process execution. ``fleet`` is the same
        shape for a :class:`~repro.distributed.fleet.ReplicaFleet`:
        covered bounded plans are offered to their co-located serving
        replica before the pool or the in-process pipeline."""
        self._catalog = catalog
        self._dedup_keys = dedup_keys
        self.executor = resolve_executor_mode(executor)
        self.rows_per_batch = resolve_rows_per_batch(rows_per_batch)
        self._pool = pool
        self._dispatch = resolve_dispatch(dispatch)
        self._fleet = fleet

    def _pool_active(self) -> Optional[EnginePool]:
        pool = self._pool
        if pool is not None and not isinstance(pool, EnginePool):
            pool = pool()  # lazy provider
        if pool is None or pool.closed:
            return None
        return pool

    def _fleet_active(self):
        fleet = self._fleet
        if fleet is not None and callable(fleet):
            fleet = fleet()  # lazy provider
        if fleet is None or fleet.closed:
            return None
        return fleet

    def _snapshot_state(self):
        """The warm-snapshot key for the catalog's current state plus the
        payload builder the pool pickles on a miss.

        The key is the access-schema generation and the data version of
        every table an access constraint covers — exactly the state a
        worker's indices reflect — so any maintenance on a covered table
        forces a fresh snapshot before the next dispatched task. The
        index map is captured at the same instant as the version vector
        (not when the pool later pickles it), keeping key and payload
        consistent; the serving layer's shard read locks additionally
        pin the indices' contents for the duration of an execute.
        """
        catalog = self._catalog
        database = catalog.database
        tables = {constraint.relation for constraint in catalog.schema}
        payload = catalog.index_map()
        versions = tuple(
            sorted(
                (name, database.table(name).version)
                for name in tables
                if name in database
            )
        )
        return (catalog.schema_generation, versions), lambda: payload

    # ------------------------------------------------------------------ #
    def execute(self, plan: AnyBoundedPlan) -> QueryResult:
        metrics = ExecutionMetrics()
        pool = self._pool_active()
        if self.executor == "columnar" or pool is not None:
            # pooled execution always runs the columnar pipeline (the wire
            # format is column batches); answers are mode-independent
            metrics.rows_per_batch = self.rows_per_batch
        start = time.perf_counter()
        fleet = self._fleet_active()
        if fleet is not None and isinstance(plan, BoundedPlan):
            outcome = self._execute_fleet_plan(fleet, plan)
            if outcome is not None:
                outcome.metrics.seconds = time.perf_counter() - start
                return outcome
            # the fleet could not serve it (no co-located replica, dead
            # replica, busy connection): fall through to pool/in-process
        if (
            pool is not None
            and self._dispatch in ("auto", "plan")
            and isinstance(plan, BoundedPlan)
        ):
            outcome = self._execute_pooled_plan(pool, plan)
            if outcome is not None:
                outcome.metrics.seconds = time.perf_counter() - start
                return outcome
            # the pooled dispatch was attempted but fell back in-process:
            # pool_workers below still describes the attempted shape, so
            # mark the outcome as (at least partly) serial
            metrics.pool_fallbacks += 1
        intermediate = self._run(plan, metrics)
        if pool is not None:
            metrics.pool_workers = pool.workers
        metrics.seconds = time.perf_counter() - start
        metrics.rows_output = len(intermediate.rows)
        columns = [
            label if isinstance(label, str) else str(label)
            for label in intermediate.labels
        ]
        return QueryResult(columns=columns, rows=intermediate.rows, metrics=metrics)

    def _execute_fleet_plan(self, fleet, plan: BoundedPlan) -> Optional[QueryResult]:
        """Serve the plan from its co-located replica; ``None`` falls
        back (to the pool branch, then in-process)."""
        outcome = fleet.execute_plan(
            plan,
            dedup=self._dedup_keys,
            rows_per_batch=self.rows_per_batch,
        )
        if outcome is None:
            return None
        columns, rows, metrics, wire, replica_id = outcome
        metrics.replica_id = replica_id
        metrics.wire_seconds = wire
        return QueryResult(columns=columns, rows=rows, metrics=metrics)

    def _execute_pooled_plan(
        self, pool: EnginePool, plan: BoundedPlan
    ) -> Optional[QueryResult]:
        """Ship the whole plan to one worker; ``None`` means fall back."""
        snapshot_key, payload_fn = self._snapshot_state()
        outcome = pool.execute_plan(
            snapshot_key,
            payload_fn,
            plan,
            dedup=self._dedup_keys,
            rows_per_batch=self.rows_per_batch,
        )
        if outcome is None:
            return None
        columns, rows, metrics, wait = outcome
        metrics.pool_workers = pool.workers
        metrics.pool_batches = metrics.batches
        metrics.pool_wait_seconds = wait
        return QueryResult(columns=columns, rows=rows, metrics=metrics)

    def _run(self, plan: AnyBoundedPlan, metrics: ExecutionMetrics) -> Intermediate:
        if isinstance(plan, SetOpPlan):
            left = self._run(plan.left, metrics)
            right = self._run(plan.right, metrics)
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
        if self.executor == "columnar" or self._pool_active() is not None:
            return self._run_select_columnar(plan, metrics)
        return self._run_select(plan, metrics)

    # ------------------------------------------------------------------ #
    # row mode
    # ------------------------------------------------------------------ #
    def _run_select(self, plan: BoundedPlan, metrics: ExecutionMetrics) -> Intermediate:
        skeleton = skeleton_of(plan)
        rows: list[tuple] = [()]
        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                rows = self._fetch(step, op, rows, metrics)
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
    ) -> list[tuple]:
        start = time.perf_counter()
        fetch = self._catalog.index_for(op.constraint).fetch
        const_keys = key_plan.const_keys(op)
        keys_for, pick_x, pick_y = key_plan.keys_for, key_plan.pick_x, key_plan.pick_y
        y_existing = key_plan.y_existing

        cache: Optional[dict[tuple, list[tuple]]] = {} if self._dedup_keys else None
        fetched = 0
        out_rows: list[tuple] = []
        for row in rows:
            for key_tuple in keys_for(row, const_keys):
                if cache is None:
                    bucket = fetch(key_tuple)
                    fetched += len(bucket)
                elif key_tuple in cache:
                    bucket = cache[key_tuple]
                else:
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
        self, plan: BoundedPlan, metrics: ExecutionMetrics
    ) -> Intermediate:
        skeleton = skeleton_of(plan)
        intermediate = ColumnarIntermediate.seed()
        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                intermediate = self._fetch_columnar(step, op, intermediate, metrics)
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
    ) -> ColumnarIntermediate:
        """Batch fetch: resolve the key batch, gather all postings, then
        materialise the output column by column (no per-row tuples).

        With an attached pool (``dispatch`` allowing batch fan-out) the
        input batches are executed on worker processes via the same
        :func:`~repro.engine.pool.run_fetch_chunk` kernel the in-process
        path uses; batches the pool cannot serve run locally, and the
        merged accounting is identical either way.
        """
        start = time.perf_counter()
        index = self._catalog.index_for(op.constraint)
        columns = intermediate.columns
        dedup = self._dedup_keys
        rows_in = intermediate.live_count
        # one gather position per output row (skipped entirely when there
        # are no input columns to replicate), plus the new columns' values
        track_gather = bool(columns)

        chunks = list(intermediate.iter_batches(self.rows_per_batch))
        metrics.batches += len(chunks)

        pool = self._pool_active()
        use_pool = (
            pool is not None
            and self._dispatch in ("auto", "batch")
            and len(chunks) > 1
            # cheap pre-flight: building the wire-format column copies is
            # the expensive part, so skip it when no worker looks idle
            # (racy, but losing the race only means one serial fetch)
            and pool.idle_count() > 0
        )
        if use_pool:
            spec, needed = key_plan.wire_spec(op, track_gather)
            payloads = [
                ([[columns[p][i] for i in chunk] for p in needed], len(chunk))
                for chunk in chunks
            ]
            snapshot_key, payload_fn = self._snapshot_state()
            results, remote, wait = pool.run_fetch_chunks(
                snapshot_key,
                payload_fn,
                op.constraint.name,
                spec,
                payloads,
                dedup=dedup,
                local_fn=lambda payload: run_fetch_chunk(
                    index.fetch, spec, payload[0], range(payload[1]), dedup
                ),
            )
            metrics.pool_batches += remote
            metrics.pool_wait_seconds += wait
            # chunks the pool could not serve ran locally via local_fn
            metrics.pool_fallbacks += len(payloads) - remote
            if dedup:
                fetched = merge_dedup_counts(results)
            else:
                fetched = sum(result.fetched for result in results)
            # map chunk-local gathers back to global physical positions
            gather: list[int] = []
            if track_gather:
                for chunk, result in zip(chunks, results):
                    gather.extend(chunk[g] for g in result.gather)
        else:
            spec = key_plan.chunk_spec(op, track_gather)
            cache: Optional[dict] = {} if dedup else None
            results = [
                run_fetch_chunk(index.fetch, spec, columns, chunk, dedup, cache)
                for chunk in chunks
            ]
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
