"""Bound deduction reporting.

The arithmetic itself happens during plan generation (every
:class:`~repro.bounded.plan.FetchOp` carries its deduced bounds); this
module renders the result the way the demo's Fig. 2(B) does — each fetch
annotated with an upper bound on the amount of data it can access — and
gives programmatic access for the budget feature and bench E4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounded.plan import AnyBoundedPlan, BoundedPlan, FetchOp, SetOpPlan


@dataclass(frozen=True)
class FetchBound:
    """Deduced bounds for one fetch operation."""

    constraint_name: str
    relation: str
    binding: str
    n: int
    key_bound: int
    access_bound: int
    tight_access_bound: int


@dataclass
class BoundSummary:
    """All per-fetch bounds plus plan totals."""

    fetches: list[FetchBound]
    access_bound: int
    tight_access_bound: int
    output_bound: int

    def describe(self) -> str:
        lines = []
        for fetch in self.fetches:
            lines.append(
                f"fetch[{fetch.constraint_name}] on {fetch.relation} as "
                f"{fetch.binding}: <= {fetch.key_bound} keys x N={fetch.n} "
                f"= {fetch.access_bound} tuples (tight {fetch.tight_access_bound})"
            )
        lines.append(
            f"total access bound M = {self.access_bound} "
            f"(tight {self.tight_access_bound})"
        )
        return "\n".join(lines)


def _collect_fetches(node: AnyBoundedPlan, fetches: list[FetchBound]) -> None:
    if isinstance(node, SetOpPlan):
        _collect_fetches(node.left, fetches)
        _collect_fetches(node.right, fetches)
        return
    assert isinstance(node, BoundedPlan)
    for op in node.ops:
        if isinstance(op, FetchOp):
            fetches.append(
                FetchBound(
                    constraint_name=op.constraint.name,
                    relation=op.constraint.relation,
                    binding=op.binding,
                    n=op.constraint.n,
                    key_bound=op.key_bound,
                    access_bound=op.access_bound,
                    tight_access_bound=op.tight_access_bound,
                )
            )


def deduce_bounds(plan: AnyBoundedPlan) -> BoundSummary:
    """Collect the bound annotations of ``plan`` into one summary."""
    fetches: list[FetchBound] = []
    _collect_fetches(plan, fetches)
    output_bound = (
        plan.output_bound if isinstance(plan, BoundedPlan) else sum(
            f.access_bound for f in fetches
        )
    )
    return BoundSummary(
        fetches=fetches,
        access_bound=plan.access_bound,
        tight_access_bound=plan.tight_access_bound,
        output_bound=output_bound,
    )
