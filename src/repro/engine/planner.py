"""Conventional planner: ConjunctiveQuery -> logical plan.

The planner mirrors a textbook System-R-lite pipeline [Ramakrishnan &
Gehrke]: push selections and single-occurrence filters into scans, pick a
greedy equi-join order from exact table statistics, apply residual filters
as soon as their occurrences are joined, then aggregate / project /
distinct / sort / limit on top.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.statistics import TableStatistics
from repro.errors import PlanningError
from repro.sql import ast
from repro.sql.normalize import Attribute, ConjunctiveQuery
from repro.engine.logical import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)


def _selection_predicate(cq: ConjunctiveQuery, binding: str) -> Optional[ast.Expression]:
    """Conjunction of constant selections + single-binding filters for one scan."""
    parts: list[ast.Expression] = []
    for attr, values in sorted(cq.selections.items()):
        if attr.binding != binding:
            continue
        ref = ast.ColumnRef(attr.column, table=attr.binding)
        if len(values) == 1:
            parts.append(ast.BinaryOp("=", ref, ast.Literal(values[0])))
        else:
            parts.append(
                ast.InList(ref, tuple(ast.Literal(v) for v in values), negated=False)
            )
    for predicate in cq.filters:
        bindings = {attr.binding for attr in predicate.attributes}
        if bindings == {binding}:
            parts.append(predicate.expression)
    # intra-occurrence equalities (e.g. t.a = t.b) are scan-local too
    for left, right in cq.equalities:
        if left.binding == binding and right.binding == binding:
            parts.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(left.column, table=binding),
                    ast.ColumnRef(right.column, table=binding),
                )
            )
    return ast.conjoin(parts)


def _estimate_scan(
    cq: ConjunctiveQuery, binding: str, stats: TableStatistics
) -> float:
    rows = float(stats.row_count)
    for attr, values in cq.selections.items():
        if attr.binding != binding:
            continue
        distinct = max(stats.distinct(attr.column), 1)
        rows *= min(1.0, len(values) / distinct)
    for predicate in cq.filters:
        bindings = {a.binding for a in predicate.attributes}
        if bindings == {binding}:
            rows *= 0.5  # textbook default selectivity for a residual filter
    return max(rows, 0.0)


class _Component:
    """One connected component during greedy join ordering."""

    def __init__(self, node: PlanNode, bindings: set[str]):
        self.node = node
        self.bindings = bindings


def _join_pairs_between(
    cq: ConjunctiveQuery, left: set[str], right: set[str]
) -> list[tuple[Attribute, Attribute]]:
    pairs = []
    for a, b in cq.equalities:
        if a.binding in left and b.binding in right:
            pairs.append((a, b))
        elif b.binding in left and a.binding in right:
            pairs.append((b, a))
    return pairs


def _estimate_join(
    left: _Component, right: _Component, pairs: list
) -> float:
    size = left.node.estimated_rows * right.node.estimated_rows
    if pairs:
        # textbook estimate |L ⋈ R| = |L||R| / max(V(L,a), V(R,b)); with row
        # counts as the distinct-value proxy this is min(|L|, |R|) for the
        # first pair, each further pair shrinking the result again
        for _ in pairs:
            size /= max(
                left.node.estimated_rows, right.node.estimated_rows, 1.0
            )
    return max(size, 1.0)


def plan_conjunctive_query(
    cq: ConjunctiveQuery,
    statistics: dict[str, TableStatistics],
) -> PlanNode:
    """Build a logical plan for ``cq`` using ``statistics`` for ordering."""
    if not cq.occurrences:
        raise PlanningError("query has no relation occurrences")

    # ---- leaf scans with pushdown and early projection -------------------
    components: list[_Component] = []
    for binding, table_name in cq.occurrences.items():
        columns = sorted(cq.attributes_of(binding))
        scan = ScanNode(
            binding=binding,
            table_name=table_name,
            columns=columns,
            predicate=_selection_predicate(cq, binding),
        )
        stats = statistics.get(table_name, TableStatistics(table=table_name))
        scan.estimated_rows = _estimate_scan(cq, binding, stats)
        components.append(_Component(scan, {binding}))

    # residual filters that span several occurrences, applied once joined
    pending_filters = [
        predicate
        for predicate in cq.filters
        if len({a.binding for a in predicate.attributes}) > 1
    ]

    def apply_ready_filters(component: _Component) -> None:
        nonlocal pending_filters
        still_pending = []
        for predicate in pending_filters:
            bindings = {a.binding for a in predicate.attributes}
            if bindings <= component.bindings:
                component.node = FilterNode(component.node, predicate.expression)
            else:
                still_pending.append(predicate)
        pending_filters = still_pending

    # ---- greedy join ordering --------------------------------------------
    while len(components) > 1:
        best: Optional[tuple[float, int, int, list]] = None
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                pairs = _join_pairs_between(
                    cq, components[i].bindings, components[j].bindings
                )
                if not pairs:
                    continue
                cost = _estimate_join(components[i], components[j], pairs)
                if best is None or cost < best[0]:
                    best = (cost, i, j, pairs)
        if best is None:
            # no equi-edge anywhere: cross join the two smallest components
            components.sort(key=lambda c: c.node.estimated_rows)
            left, right = components[0], components[1]
            pairs = []
            cost = max(left.node.estimated_rows * right.node.estimated_rows, 1.0)
            i, j = 0, 1
        else:
            cost, i, j, pairs = best
            left, right = components[i], components[j]
        joined = JoinNode(left.node, right.node, pairs)
        joined.estimated_rows = cost
        component = _Component(joined, left.bindings | right.bindings)
        apply_ready_filters(component)
        components = [
            c for k, c in enumerate(components) if k not in (i, j)
        ] + [component]

    root = components[0]
    apply_ready_filters(root)
    if pending_filters:  # pragma: no cover - defensive
        raise PlanningError("residual filters could not be placed")
    return attach_tail(root.node, cq)


def aggregate_calls_of(cq: ConjunctiveQuery) -> list[ast.FunctionCall]:
    """All distinct aggregate calls appearing in output/HAVING/ORDER BY."""
    calls: list[ast.FunctionCall] = []
    seen: set[ast.FunctionCall] = set()
    sources: list[ast.Expression] = [i.expression for i in cq.output]
    if cq.having is not None:
        sources.append(cq.having)
    for order in cq.order_by:
        sources.append(order.expression)
    for source in sources:
        for sub in ast.walk_expression(source):
            if (
                isinstance(sub, ast.FunctionCall)
                and sub.is_aggregate
                and sub not in seen
            ):
                seen.add(sub)
                calls.append(sub)
    return calls


def attach_tail(
    node: PlanNode, cq: ConjunctiveQuery, *, force_distinct: bool = False
) -> PlanNode:
    """Append the aggregation / sort / project / distinct / limit tail.

    Shared between the conventional planner and a bounded plan's
    skeleton (``bounded.skeleton``: the same tail over a
    :class:`MaterializedNode` leaf that stands for the fetched rows,
    attached and prepared once per plan shape). ``force_distinct`` makes
    the output set-semantic even when the query lacks DISTINCT (bounded
    plans that are not bag-exact).
    """
    if cq.has_aggregates or cq.group_by:
        node = AggregateNode(node, list(cq.group_by), aggregate_calls_of(cq), cq.having)

    # Sort below the projection: base attributes and aggregate columns are
    # still addressable there, and Project/Distinct preserve row order.
    # ORDER BY entries naming an output alias are first rewritten to the
    # aliased expression.
    if cq.order_by:
        by_name = {item.name: item.expression for item in cq.output}
        resolved_orders: list[ast.OrderItem] = []
        for order in cq.order_by:
            expr = order.expression
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in by_name
            ):
                expr = by_name[expr.name]
            resolved_orders.append(ast.OrderItem(expr, order.ascending))
        node = SortNode(node, resolved_orders)

    node = ProjectNode(node, list(cq.output))

    if cq.distinct or force_distinct:
        node = DistinctNode(node)
    if cq.limit is not None or cq.offset is not None:
        node = LimitNode(node, cq.limit, cq.offset)
    return node
