"""Logical plan nodes for the conventional engine.

Plans are trees of dataclass nodes; the planner (``repro.engine.planner``)
builds them from a :class:`~repro.sql.normalize.ConjunctiveQuery`, the
executor (``repro.engine.physical``) interprets them. Row *labels* are
:class:`~repro.sql.normalize.Attribute` until projection, strings after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sql import ast
from repro.sql.normalize import Attribute, OutputItem
from repro.sql.printer import expression_to_sql


@dataclass
class LogicalNode:
    """Base class; ``estimated_rows`` guides join ordering."""

    estimated_rows: float = field(default=0.0, init=False)


@dataclass
class ScanNode(LogicalNode):
    """Scan one base-table occurrence, filter, and project needed columns."""

    binding: str
    table_name: str
    columns: list[str]  # column names to emit (early projection)
    predicate: Optional[ast.Expression] = None  # pushed-down conjunction

    def __post_init__(self) -> None:
        self.estimated_rows = 0.0


@dataclass
class FilterNode(LogicalNode):
    child: "PlanNode"
    predicate: ast.Expression

    def __post_init__(self) -> None:
        self.estimated_rows = self.child.estimated_rows


@dataclass
class JoinNode(LogicalNode):
    """Equi-join on ``pairs``; an empty list means a cross product."""

    left: "PlanNode"
    right: "PlanNode"
    pairs: list[tuple[Attribute, Attribute]]  # (left attr, right attr)

    def __post_init__(self) -> None:
        self.estimated_rows = 0.0


@dataclass
class AggregateNode(LogicalNode):
    """Group ``child`` by ``group_by`` and compute ``calls`` per group.

    Output layout: group attributes first, then one column per aggregate
    call (labelled by the call node itself).
    """

    child: "PlanNode"
    group_by: list[Attribute]
    calls: list[ast.FunctionCall]
    having: Optional[ast.Expression] = None

    def __post_init__(self) -> None:
        self.estimated_rows = self.child.estimated_rows


@dataclass
class ProjectNode(LogicalNode):
    """Evaluate output expressions; relabels columns to output names."""

    child: "PlanNode"
    items: list[OutputItem]

    def __post_init__(self) -> None:
        self.estimated_rows = self.child.estimated_rows


@dataclass
class DistinctNode(LogicalNode):
    child: "PlanNode"

    def __post_init__(self) -> None:
        self.estimated_rows = self.child.estimated_rows


@dataclass
class SortNode(LogicalNode):
    child: "PlanNode"
    order_by: list[ast.OrderItem]

    def __post_init__(self) -> None:
        self.estimated_rows = self.child.estimated_rows


@dataclass
class LimitNode(LogicalNode):
    child: "PlanNode"
    limit: Optional[int]
    offset: Optional[int]

    def __post_init__(self) -> None:
        self.estimated_rows = self.child.estimated_rows


@dataclass
class MaterializedNode(LogicalNode):
    """An already-computed intermediate injected into a plan.

    The BE Plan Executor uses this to hand bounded (fetch-produced)
    results to the conventional physical operators; a bounded plan's
    skeleton and a partially bounded plan's residual attach their tail
    above an empty one.
    """

    labels: list[object]
    rows: list[tuple]

    def __post_init__(self) -> None:
        self.estimated_rows = float(len(self.rows))


@dataclass
class SetOpNode(LogicalNode):
    """UNION / INTERSECT / EXCEPT over two complete plans."""

    op: str
    left: "PlanNode"
    right: "PlanNode"
    all: bool = False

    def __post_init__(self) -> None:
        self.estimated_rows = self.left.estimated_rows + self.right.estimated_rows


PlanNode = LogicalNode


def explain(node: PlanNode, indent: int = 0) -> str:
    """Readable plan tree (used by tests, examples, and the demo analyzer)."""
    pad = "  " * indent
    if isinstance(node, ScanNode):
        pred = node.predicate
        where = f" filter [{expression_to_sql(pred)}]" if pred is not None else ""
        return f"{pad}Scan {node.table_name} AS {node.binding}{where}"
    if isinstance(node, FilterNode):
        return (
            f"{pad}Filter [{expression_to_sql(node.predicate)}]\n"
            + explain(node.child, indent + 1)
        )
    if isinstance(node, JoinNode):
        condition = (
            ", ".join(f"{l} = {r}" for l, r in node.pairs) if node.pairs else "cross"
        )
        return (
            f"{pad}Join [{condition}]\n"
            + explain(node.left, indent + 1)
            + "\n"
            + explain(node.right, indent + 1)
        )
    if isinstance(node, AggregateNode):
        keys = ", ".join(str(a) for a in node.group_by) or "()"
        calls = ", ".join(c.name for c in node.calls)
        return f"{pad}Aggregate group by {keys} [{calls}]\n" + explain(
            node.child, indent + 1
        )
    if isinstance(node, ProjectNode):
        names = ", ".join(item.name for item in node.items)
        return f"{pad}Project [{names}]\n" + explain(node.child, indent + 1)
    if isinstance(node, DistinctNode):
        return f"{pad}Distinct\n" + explain(node.child, indent + 1)
    if isinstance(node, SortNode):
        return f"{pad}Sort\n" + explain(node.child, indent + 1)
    if isinstance(node, LimitNode):
        return f"{pad}Limit {node.limit}\n" + explain(node.child, indent + 1)
    if isinstance(node, SetOpNode):
        return (
            f"{pad}{node.op}{' ALL' if node.all else ''}\n"
            + explain(node.left, indent + 1)
            + "\n"
            + explain(node.right, indent + 1)
        )
    if isinstance(node, MaterializedNode):
        return f"{pad}Materialized [{len(node.rows)} rows]"
    return f"{pad}{node!r}"  # pragma: no cover
