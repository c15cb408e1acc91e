"""Resource-bounded approximation (paper §2/§3).

When a user "can afford only bounded resources and hence opts to take
approximate query answers", BEAS executes the bounded plan under a hard
tuple budget: each fetch stops consuming input rows once the budget is
exhausted. For monotone SPJ queries this yields a **sound** subset of the
exact answer, and the cardinality constraints let us derive a
**deterministic accuracy (recall) lower bound**: every input row a fetch
dropped can produce at most ``Π_{j ≥ i} (factor_j · N_j)`` final
intermediate rows, so the number of missed answers is bounded above by a
number computed from the access schema alone.

Aggregates, HAVING, and EXCEPT are rejected (truncation is not monotone
for them); the checker/facade fall back to exact evaluation instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional


from repro.access.catalog import ASCatalog
from repro.errors import PlanningError
from repro.engine.metrics import ExecutionMetrics
from repro.bounded.plan import BoundedPlan, FetchOp
from repro.bounded.skeleton import Constants, _KeyPlan, skeleton_of


@dataclass
class ApproximateResult:
    """Approximate answers plus the deterministic accuracy guarantee."""

    columns: list[str]
    rows: list[tuple]
    budget: int
    tuples_fetched: int
    complete: bool  # no truncation happened: the answer is exact
    missed_bound: int  # upper bound on the number of missed answers
    recall_lower_bound: float  # |found| / (|found| + missed_bound)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)

    def describe(self) -> str:
        status = "exact (budget not reached)" if self.complete else "approximate"
        return (
            f"{status}: {len(self.rows)} answers, fetched "
            f"{self.tuples_fetched}/{self.budget} tuples, recall >= "
            f"{self.recall_lower_bound:.4f} (missed <= {self.missed_bound})"
        )


class BoundedApproximator:
    """Executes bounded plans under a hard tuple budget."""

    def __init__(self, catalog: ASCatalog):
        self._catalog = catalog

    # ------------------------------------------------------------------ #
    def execute(
        self, plan: BoundedPlan, budget: int, constants: Optional[Constants] = None
    ) -> ApproximateResult:
        """Run ``plan`` within ``budget`` tuples; ``constants`` is the
        constant vector to run it with, or None for the plan's own."""
        if not isinstance(plan, BoundedPlan):
            raise PlanningError(
                "resource-bounded approximation supports single SELECT blocks"
            )
        cq = plan.cq
        if cq.has_aggregates or cq.group_by or cq.having is not None:
            raise PlanningError(
                "resource-bounded approximation does not support aggregates; "
                "truncated inputs make aggregate values non-monotone"
            )
        if budget < 0:
            raise PlanningError("budget must be non-negative")

        metrics = ExecutionMetrics()
        start = time.perf_counter()
        remaining = budget
        skeleton = skeleton_of(plan)
        if constants is None:
            constants = skeleton.constants(plan)
        rows: list[tuple] = [()]
        truncated = False
        # dropped input rows per fetch index, for the missed-answer bound
        fetch_ops = plan.fetch_ops
        dropped: list[int] = [0] * len(fetch_ops)
        fetch_index = -1

        for step, op in zip(skeleton.steps, plan.ops):
            if isinstance(step, _KeyPlan):
                fetch_index += 1
                rows, used, rows_dropped = self._fetch_within(
                    step, op, constants, rows, remaining
                )
                remaining -= used
                metrics.tuples_fetched += used
                dropped[fetch_index] = rows_dropped
                if rows_dropped:
                    truncated = True
            else:
                rows = step.keep(constants, rows)

        # approximate answers are a set
        final = skeleton.tail(plan, as_set=True).run(rows, metrics)

        missed = self._missed_bound(fetch_ops, dropped)
        found = len(final.rows)
        recall = 1.0 if (found + missed) == 0 else found / (found + missed)
        metrics.seconds = time.perf_counter() - start
        metrics.rows_output = found
        columns = [
            label if isinstance(label, str) else str(label)
            for label in final.labels
        ]
        return ApproximateResult(
            columns=columns,
            rows=final.rows,
            budget=budget,
            tuples_fetched=budget - remaining,
            complete=not truncated,
            missed_bound=0 if not truncated else missed,
            recall_lower_bound=1.0 if not truncated else recall,
            metrics=metrics,
        )

    # ------------------------------------------------------------------ #
    def _fetch_within(
        self,
        key_plan: _KeyPlan,
        op: FetchOp,
        constants: Constants,
        rows: list[tuple],
        remaining: int,
    ) -> tuple[list[tuple], int, int]:
        """Run one fetch, stopping before the budget is exceeded.

        (row, key) pairs are consumed atomically — a key's whole bucket or
        nothing — so IN-list expansions truncate per key, and the count of
        dropped keys cleanly bounds the missed answers (each dropped key
        yields at most N output rows at this fetch).
        """
        fetch = self._catalog.index_for(op.constraint).fetch
        const_keys = key_plan.const_keys(constants)
        pick_x, pick_y, y_existing = key_plan.pick_x, key_plan.pick_y, key_plan.y_existing

        used = 0
        out_rows: list[tuple] = []
        dropped_keys = 0
        exhausted = False
        for row in rows:
            for key_tuple in key_plan.keys_for(row, const_keys):
                if exhausted:
                    dropped_keys += 1
                    continue
                bucket = fetch(key_tuple)
                if used + len(bucket) > remaining:
                    exhausted = True
                    dropped_keys += 1
                    continue
                used += len(bucket)
                prefix = row + pick_x(key_tuple)
                for y_value in bucket:
                    if any(y_value[i] != row[pos] for i, pos in y_existing):
                        continue
                    out_rows.append(prefix + pick_y(y_value))
        return out_rows, used, dropped_keys

    # ------------------------------------------------------------------ #
    @staticmethod
    def _missed_bound(fetch_ops: list[FetchOp], dropped: list[int]) -> int:
        """Upper bound on final-intermediate rows lost to truncation.

        A *key* dropped at fetch ``i`` yields at most ``N_i`` rows there,
        each expanding into at most ``Π_{j > i} factor_j · N_j`` rows
        downstream, where ``factor_j = key_bound_j / input_bound_j``
        accounts for IN-list enumeration. All quantities come from the
        access schema, so the bound is deterministic.
        """
        multipliers: list[int] = []
        for op in fetch_ops:
            factor = op.key_bound // max(op.input_bound, 1)
            multipliers.append(max(factor, 1) * max(op.constraint.n, 0))
        missed = 0
        for i, keys_dropped in enumerate(dropped):
            if not keys_dropped:
                continue
            expansion = max(fetch_ops[i].constraint.n, 0)
            for j in range(i + 1, len(multipliers)):
                expansion *= multipliers[j]
            missed += keys_dropped * expansion
        return missed
