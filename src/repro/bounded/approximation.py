"""Resource-bounded approximation (paper §2/§3).

When a user "can afford only bounded resources and hence opts to take
approximate query answers", BEAS runs the same bounded plan on the BE
Plan Executor under a hard tuple budget
(:class:`~repro.bounded.executor.TupleBudget`): a fetch takes a key's
whole bucket or none of it, and once the budget is exhausted drops every
later key. For monotone SPJ queries this yields a **sound** subset of
the exact answer, and the cardinality constraints let us derive a
**deterministic accuracy (recall) lower bound**: every key a fetch
dropped can produce at most ``Π_{j ≥ i} (factor_j · N_j)`` final
intermediate rows, so the number of missed answers is bounded above by a
number computed from the access schema alone.

Aggregates, HAVING, and EXCEPT are rejected (truncation is not monotone
for them); the checker/facade fall back to exact evaluation instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


from repro.access.catalog import ASCatalog
from repro.errors import PlanningError
from repro.engine.metrics import ExecutionMetrics
from repro.bounded.executor import BoundedPlanExecutor, TupleBudget
from repro.bounded.plan import BoundedPlan, FetchOp
from repro.bounded.skeleton import Constants


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
    """Runs bounded plans under a hard tuple budget on the BE Plan
    Executor's row pipeline, and bounds the answers the budget cost."""

    def __init__(self, catalog: ASCatalog):
        self._executor = BoundedPlanExecutor(catalog)

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

        spent = TupleBudget(budget)
        result = self._executor.execute(plan, constants, spent)
        missed = self._missed_bound(plan.fetch_ops, spent.dropped)
        found = len(result.rows)
        return ApproximateResult(
            columns=result.columns,
            rows=result.rows,
            budget=budget,
            tuples_fetched=result.metrics.tuples_fetched,
            complete=not any(spent.dropped),
            missed_bound=missed,
            recall_lower_bound=found / (found + missed) if missed else 1.0,
            metrics=result.metrics,
        )

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
