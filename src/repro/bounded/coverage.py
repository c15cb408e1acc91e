"""BE Checker: decide bounded evaluability before execution.

Implements the practical side of the paper's Feasibility Theorem: a query
is *covered* by the access schema ``A`` when the plan generator finds a
bounded plan (a PTIME check — the DFS is bounded by the polynomial number
of (occurrence, constraint) fetch choices and materialised-attribute
states for the fixed-size queries BEAS targets). The checker layers two
policies on top of raw plan existence:

* **Aggregate exactness** — duplicate-sensitive aggregates (plain COUNT /
  SUM / AVG) are only covered when the plan is *bag-exact*, i.e. every
  occurrence's fetches expose a candidate key, so distinct partial tuples
  are in bijection with rows. MIN / MAX / COUNT(DISTINCT) / SUM(DISTINCT)
  / AVG(DISTINCT) are duplicate-insensitive and need no key coverage.
* **Budget** — the user may supply a tuple budget (Fig. 2(A) of the demo);
  the checker compares the deduced bound ``M`` against it *without
  executing the query*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.catalog.schema import DatabaseSchema
from repro.errors import NormalizationError, SQLError
from repro.sql import ast
from repro.sql.normalize import ConjunctiveQuery, normalize
from repro.sql.parser import parse
from repro.bounded.plan import AnyBoundedPlan, SetOpPlan
from repro.bounded.planner import BoundedPlanGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.bounded.optimizer import PartialPlan

#: Aggregates whose value changes when duplicates collapse.
_DUPLICATE_SENSITIVE = ("COUNT", "SUM", "AVG")


def duplicate_sensitive_calls(cq: ConjunctiveQuery) -> list[ast.FunctionCall]:
    """Aggregate calls that require exact bag semantics."""
    calls: list[ast.FunctionCall] = []
    sources = [item.expression for item in cq.output]
    if cq.having is not None:
        sources.append(cq.having)
    for source in sources:
        for sub in ast.walk_expression(source):
            if (
                isinstance(sub, ast.FunctionCall)
                and sub.is_aggregate
                and sub.name in _DUPLICATE_SENSITIVE
                and not sub.distinct
            ):
                calls.append(sub)
    return calls


@dataclass
class CoverageDecision:
    """Outcome of the BE Checker for one query."""

    covered: bool
    reasons: list[str] = field(default_factory=list)
    plan: Optional[AnyBoundedPlan] = None
    bag_exact: bool = False
    access_bound: Optional[int] = None
    tight_access_bound: Optional[int] = None
    within_budget: Optional[bool] = None  # None when no budget was given
    constraints_used: list[AccessConstraint] = field(default_factory=list)
    #: Not covered: the BE Plan Optimizer's partially bounded plan, made
    #: once by ``BEAS.check`` and cached with this decision the way a
    #: covered decision keeps ``plan`` (None: no useful bounded prefix).
    #: ``access_bound`` stays None either way: the answer is not bounded.
    partial: Optional["PartialPlan"] = None

    def describe(self) -> str:
        if not self.covered:
            lines = ["NOT covered by the access schema:"]
            lines.extend(f"  - {reason}" for reason in self.reasons)
            return "\n".join(lines)
        lines = [
            "covered: bounded plan found",
            f"  access bound M = {self.access_bound} tuples "
            f"(tight: {self.tight_access_bound})",
            f"  constraints used: "
            f"{', '.join(c.name for c in self.constraints_used) or '(none)'}",
            f"  exact bag semantics: {self.bag_exact}",
        ]
        if self.within_budget is not None:
            lines.append(f"  within budget: {self.within_budget}")
        return "\n".join(lines)


class BoundedEvaluabilityChecker:
    """Checks queries against an access schema (paper §3, BE Checker).

    ``require_exact_multiplicities=True`` additionally rejects non-DISTINCT
    SELECTs whose plan is not bag-exact; by default BEAS answers those with
    set semantics (the demo's Example 2 treats the answer as a set of
    regions), and the decision records ``bag_exact=False`` so callers can
    tell.
    """

    def __init__(
        self,
        db_schema: DatabaseSchema,
        access_schema: AccessSchema,
        *,
        require_exact_multiplicities: bool = False,
    ):
        self._db_schema = db_schema
        self._access_schema = access_schema
        self._require_exact = require_exact_multiplicities
        self._generator = BoundedPlanGenerator(db_schema, access_schema)
        #: Number of full checker runs (parse/normalize + plan search)
        #: this instance has performed. The rebinding differential suite
        #: asserts that equal-arity plan rebinds never bump it.
        self.check_count = 0

    # ------------------------------------------------------------------ #
    def check(
        self,
        query: Union[str, ast.Statement],
        budget: Optional[int] = None,
    ) -> CoverageDecision:
        """Decide coverage (and budget feasibility) without executing."""
        self.check_count += 1
        try:
            statement = parse(query) if isinstance(query, str) else query
        except SQLError as error:
            return CoverageDecision(covered=False, reasons=[str(error)])
        decision = self._check_statement(statement)
        if decision.covered and budget is not None:
            decision.within_budget = decision.access_bound <= budget
        return decision

    # ------------------------------------------------------------------ #
    def _check_statement(self, statement: ast.Statement) -> CoverageDecision:
        if isinstance(statement, ast.SetOperation):
            left = self._check_statement(statement.left)
            right = self._check_statement(statement.right)
            if not (left.covered and right.covered):
                reasons = [
                    f"{statement.op}: {side} argument not covered: {reason}"
                    for side, decision in (("left", left), ("right", right))
                    if not decision.covered
                    for reason in decision.reasons
                ]
                return CoverageDecision(covered=False, reasons=reasons)
            # set semantics of UNION/INTERSECT/EXCEPT absorb multiplicities;
            # the ALL variants require bag exactness on both sides
            if statement.all and not (left.bag_exact and right.bag_exact):
                return CoverageDecision(
                    covered=False,
                    reasons=[
                        f"{statement.op} ALL requires exact bag semantics but "
                        "some occurrence is not key-covered by its fetches"
                    ],
                )
            plan = SetOpPlan(statement.op, left.plan, right.plan, statement.all)
            return CoverageDecision(
                covered=True,
                plan=plan,
                bag_exact=left.bag_exact and right.bag_exact,
                access_bound=left.access_bound + right.access_bound,
                tight_access_bound=left.tight_access_bound
                + right.tight_access_bound,
                constraints_used=plan.constraints_used,
            )

        try:
            cq = normalize(statement, self._db_schema)
        except NormalizationError as error:
            return CoverageDecision(
                covered=False,
                reasons=[f"outside the SPJA fragment: {error}"],
            )

        sensitive = duplicate_sensitive_calls(cq)
        need_bag_exact = bool(sensitive) or (
            self._require_exact and not cq.distinct and not cq.has_aggregates
        )
        plan, reasons = self._generator.try_generate(
            cq, require_bag_exact=need_bag_exact
        )
        if plan is None and not reasons:
            # some plan covers every occurrence, but none anchors them all
            if sensitive:
                names = ", ".join(sorted({c.name for c in sensitive}))
                reason = (
                    f"aggregates ({names}) need exact multiplicities, but "
                    "no bag-exact bounded plan exists: some occurrence "
                    "cannot be key-covered by its fetches"
                )
            else:
                reason = (
                    "exact multiplicities were requested "
                    "(require_exact_multiplicities=True) but no bag-exact "
                    "bounded plan exists"
                )
            return CoverageDecision(covered=False, reasons=[reason])
        if plan is None:
            return CoverageDecision(covered=False, reasons=reasons)

        return CoverageDecision(
            covered=True,
            plan=plan,
            bag_exact=plan.bag_exact,
            access_bound=plan.access_bound,
            tight_access_bound=plan.tight_access_bound,
            constraints_used=plan.constraints_used,
        )
