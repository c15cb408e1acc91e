"""Logical plan nodes for the conventional engine.

Plans are trees of dataclass nodes; the planner (``repro.engine.planner``)
builds them from a :class:`~repro.sql.normalize.ConjunctiveQuery`, the
executor (``repro.engine.physical``) interprets them. Row *labels* are
:class:`~repro.sql.normalize.Attribute` until projection, strings after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

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

    The BE Plan Executor and Optimizer use this to hand bounded
    (fetch-produced) results to the conventional physical operators.
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


def join_sides(
    node: JoinNode, indexed: frozenset[str] = frozenset()
) -> tuple[int, int]:
    """``(build, probe)``: the child positions a hash join builds on and
    probes with. A scan of a table in ``indexed`` is probed by its key
    index, which reads only the buckets the build's keys name, so it is
    the probe side when the other child is not such a scan too; else the
    join builds on the child the planner expects to be smaller, the left
    one on a tie."""
    left, right = (
        isinstance(child, ScanNode) and child.table_name in indexed
        for child in (node.left, node.right)
    )
    if left != right:
        return (1, 0) if left else (0, 1)
    return (0, 1) if node.left.estimated_rows <= node.right.estimated_rows else (1, 0)


def _scan_line(node: ScanNode, pad: str, probed_on: Sequence[str] = ()) -> str:
    access = "Probe" if probed_on else "Scan"
    on = f" on ({', '.join(probed_on)})" if probed_on else ""
    pred = f" filter [{expression_to_sql(node.predicate)}]" if node.predicate else ""
    return f"{pad}{access} {node.table_name} AS {node.binding}{on}{pred}"


def explain(
    node: PlanNode, indent: int = 0, indexed: frozenset[str] = frozenset()
) -> str:
    """Readable plan tree (used by tests, examples, and the demo analyzer).

    ``indexed`` is what ``PhysicalExecutor`` is handed: a scan of one of
    its tables on a hash join's probe side reads as the key-index probe
    it runs as."""
    pad = "  " * indent
    if isinstance(node, ScanNode):
        return _scan_line(node, pad)
    if isinstance(node, FilterNode):
        return (
            f"{pad}Filter [{expression_to_sql(node.predicate)}]\n"
            + explain(node.child, indent + 1, indexed)
        )
    if isinstance(node, JoinNode):
        children = (node.left, node.right)
        sides = [explain(child, indent + 1, indexed) for child in children]
        _, probe = join_sides(node, indexed)
        child = children[probe]
        if node.pairs and isinstance(child, ScanNode) and child.table_name in indexed:
            columns = [pair[probe].column for pair in node.pairs]
            sides[probe] = _scan_line(child, pad + "  ", columns)
        condition = (
            ", ".join(f"{l} = {r}" for l, r in node.pairs) if node.pairs else "cross"
        )
        return f"{pad}Join [{condition}]\n" + "\n".join(sides)
    if isinstance(node, AggregateNode):
        keys = ", ".join(str(a) for a in node.group_by) or "()"
        calls = ", ".join(c.name for c in node.calls)
        return f"{pad}Aggregate group by {keys} [{calls}]\n" + explain(
            node.child, indent + 1, indexed
        )
    if isinstance(node, ProjectNode):
        names = ", ".join(item.name for item in node.items)
        return f"{pad}Project [{names}]\n" + explain(node.child, indent + 1, indexed)
    if isinstance(node, DistinctNode):
        return f"{pad}Distinct\n" + explain(node.child, indent + 1, indexed)
    if isinstance(node, SortNode):
        return f"{pad}Sort\n" + explain(node.child, indent + 1, indexed)
    if isinstance(node, LimitNode):
        return f"{pad}Limit {node.limit}\n" + explain(node.child, indent + 1, indexed)
    if isinstance(node, SetOpNode):
        return (
            f"{pad}{node.op}{' ALL' if node.all else ''}\n"
            + explain(node.left, indent + 1, indexed)
            + "\n"
            + explain(node.right, indent + 1, indexed)
        )
    if isinstance(node, MaterializedNode):
        return f"{pad}Materialized [{len(node.rows)} rows]"
    return f"{pad}{node!r}"  # pragma: no cover
