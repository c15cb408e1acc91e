"""Bounded query plans.

A bounded plan is a pipeline that starts from the query's constants and
accesses data *only* through ``fetch(X ∈ T, Y, R)`` operations (paper §3,
BE Plan Generator): each fetch extends the running intermediate ``T`` with
the Y-values the access index returns for the X-keys drawn from ``T``.
Selections, equality enforcement, aggregation, and projection are applied
to intermediate results and never touch base data.

Every fetch is annotated with the upper bound on the amount of data it can
access, deduced from the cardinality constraints alone (Example 2 of the
paper: 2 000, 24 000, 12 000 000 for Q under A0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Literal, Optional, TypeVar

from repro.access.constraint import AccessConstraint
from repro.sql import ast
from repro.sql.normalize import Attribute, ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.bounded.skeleton import PlanSkeleton

_T = TypeVar("_T")


def patched(instance: _T, **changes: Any) -> _T:
    """``dataclasses.replace`` for the request path: a shallow copy of a
    plain (unfrozen, slot-less) dataclass instance with some fields
    swapped. It skips ``__init__`` and the field introspection, a fifth
    of the cost, and carries every other attribute over as it is —
    which is how a rebound plan keeps its template's skeleton slot."""
    copy = object.__new__(type(instance))
    copy.__dict__.update(instance.__dict__)
    copy.__dict__.update(changes)
    return copy


@dataclass(frozen=True)
class KeyPart:
    """How one X-attribute of a fetch obtains its key values.

    ``column`` sources take the value from an already-materialised column
    of the intermediate; ``const`` sources enumerate literals from the
    query (an ``IN`` list contributes all its members).
    """

    attribute: str  # X attribute name within the constraint's relation
    source: Literal["column", "const"]
    column: Optional[Attribute] = None
    values: Optional[tuple] = None

    def __str__(self) -> str:
        if self.source == "column":
            return f"{self.attribute}:={self.column}"
        rendered = ", ".join(repr(v) for v in self.values or ())
        return f"{self.attribute} in ({rendered})"


@dataclass
class FetchOp:
    """``fetch(X ∈ T, Y, R)`` via one access constraint."""

    constraint: AccessConstraint
    binding: str  # relation occurrence served
    key_parts: list[KeyPart]
    new_columns: list[Attribute]  # columns this fetch adds to the intermediate
    # --- deduced bounds (counts of partial tuples) ---
    input_bound: int = 0  # |T| upper bound when the fetch runs
    key_bound: int = 0  # number of keys presented to the index
    access_bound: int = 0  # key_bound * N  (paper's arithmetic)
    output_bound: int = 0  # |T'| after the extension
    tight_key_bound: int = 0  # dedup-aware refinement (ablation A3)
    tight_access_bound: int = 0

    def describe(self) -> str:
        keys = ", ".join(str(part) for part in self.key_parts)
        return (
            f"fetch[{self.constraint.name}] {self.constraint.relation} as "
            f"{self.binding} ({keys}) -> {{{', '.join(self.constraint.y)}}} "
            f"(<= {self.access_bound} tuples)"
        )


@dataclass
class SelectOp:
    """Filter the intermediate; never touches base data.

    * ``selection`` — keep rows whose ``column`` value is among ``values``
    * ``equality``  — keep rows where ``column == other`` (enforces an
      equi-join atom that no fetch keyed on)
    * ``filter``    — arbitrary residual predicate over materialised columns
    """

    kind: Literal["selection", "equality", "filter"]
    column: Optional[Attribute] = None
    values: Optional[tuple] = None
    other: Optional[Attribute] = None
    predicate: Optional[ast.Expression] = None

    def describe(self) -> str:
        if self.kind == "selection":
            rendered = ", ".join(repr(v) for v in self.values or ())
            return f"select {self.column} in ({rendered})"
        if self.kind == "equality":
            return f"select {self.column} = {self.other}"
        from repro.sql.printer import expression_to_sql

        return f"select [{expression_to_sql(self.predicate)}]"


PlanOp = FetchOp | SelectOp


class SkeletonSlot:
    """Where a plan keeps its compiled shape: one slot, shared by the plan
    and every rebinding of it, filled by the first of them to execute
    (:func:`repro.bounded.skeleton.skeleton_of`)."""

    __slots__ = ("skeleton",)

    def __init__(self) -> None:
        self.skeleton: Optional["PlanSkeleton"] = None


@dataclass
class BoundedPlan:
    """A complete bounded plan for one SELECT block."""

    cq: ConjunctiveQuery
    ops: list[PlanOp]
    bag_exact: bool  # every occurrence key-covered => exact bag semantics
    access_bound: int  # sum of fetch access bounds (paper's M)
    tight_access_bound: int
    output_bound: int  # bound on the final intermediate size
    constraints_used: list[AccessConstraint] = field(default_factory=list)
    #: The plan's constant-free compiled shape. Derived state: it is not
    #: part of the plan's value (``==``, ``repr``) and never crosses a
    #: pickle boundary — a pool worker or replica compiles its own.
    _shape: SkeletonSlot = field(
        default_factory=SkeletonSlot, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_shape"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._shape = SkeletonSlot()

    @property
    def fetch_ops(self) -> list[FetchOp]:
        return [op for op in self.ops if isinstance(op, FetchOp)]

    def rebound(
        self, ops: list[PlanOp], cq: ConjunctiveQuery
    ) -> "BoundedPlan":
        """A copy of this plan with patched ops/cq, *identical* bounds and
        the same skeleton slot.

        Used by constraint-preserving plan rebinding
        (:mod:`repro.bounded.rebind`): when a new binding keeps every
        equality class's constant arity, the §3 bound arithmetic —
        ``access_bound``, ``tight_access_bound``, ``output_bound`` — and
        the plan's shape are unchanged by construction, so only the
        operator pipeline and the canonical query carry new constants.
        """
        return patched(self, ops=ops, cq=cq)

    def describe(self) -> str:
        lines = [op.describe() for op in self.ops]
        lines.append(
            f"-- access bound: {self.access_bound} tuples "
            f"(tight: {self.tight_access_bound}); "
            f"{len(self.fetch_ops)} fetches; bag-exact: {self.bag_exact}"
        )
        return "\n".join(lines)


@dataclass
class SetOpPlan:
    """Bounded plan for a set operation: both sides bounded."""

    op: str  # 'UNION' | 'INTERSECT' | 'EXCEPT'
    left: "AnyBoundedPlan"
    right: "AnyBoundedPlan"
    all: bool = False

    @property
    def access_bound(self) -> int:
        return self.left.access_bound + self.right.access_bound

    @property
    def tight_access_bound(self) -> int:
        return self.left.tight_access_bound + self.right.tight_access_bound

    @property
    def bag_exact(self) -> bool:
        return self.left.bag_exact and self.right.bag_exact

    @property
    def constraints_used(self) -> list[AccessConstraint]:
        merged: list[AccessConstraint] = []
        seen: set[str] = set()
        for side in (self.left, self.right):
            for constraint in side.constraints_used:
                if constraint.name not in seen:
                    seen.add(constraint.name)
                    merged.append(constraint)
        return merged

    def describe(self) -> str:
        keyword = self.op + (" ALL" if self.all else "")
        return (
            self.left.describe()
            + f"\n{keyword}\n"
            + self.right.describe()
        )


AnyBoundedPlan = BoundedPlan | SetOpPlan


def explain_plan(plan: AnyBoundedPlan) -> str:
    """Human-readable plan listing with per-fetch bound annotations
    (what Fig. 2(B) of the demo shows)."""
    return plan.describe()
