"""Physical operators: interpret a logical plan over a Database.

Everything is materialised (lists of row tuples) — predictable, easy to
meter, and appropriate for an in-memory engine. Each operator records an
:class:`~repro.engine.metrics.OperationCost` so the Fig.-3-style analyzer
can break a query's cost down per operation.

The tail operators (aggregate, sort, project, distinct, limit) come in one
prepare-then-run form: preparing binds everything that depends on the plan
and the input's labels (positions, compiled expressions), running reads
rows. The conventional engine prepares and runs each back to back; a
bounded plan's skeleton keeps the prepared tail (:class:`PreparedTail`)
and runs it once per request, whichever mode ran the plan's fetches: the
BE Plan Executor's row and columnar modes (a budgeted run included) all
end in it, so each tail operator has one implementation.

A hash join hands its build keys sideways to a scan on its probe side,
which tests each tuple's key before interpreting anything on it. (A
partially bounded plan's residual probes a key index instead; it runs
its own compiled steps, :mod:`repro.bounded.residual`, and ends in the
same :class:`PreparedTail`.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.normalize import Attribute
from repro.storage.database import Database
from repro.storage.table import KeyIndex, group_by_key, key_tuples
from repro.engine.expressions import (
    _column_position,
    compile_expression,
    compile_predicate,
)
from repro.engine.logical import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    MaterializedNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SetOpNode,
    SortNode,
)
from repro.engine.metrics import ExecutionMetrics

Row = tuple


@dataclass
class Intermediate:
    """A materialised intermediate relation with labelled columns."""

    labels: list[object]  # Attribute | str | ast.FunctionCall
    rows: list[Row]
    _layout: Optional[dict[object, int]] = field(default=None, repr=False)

    @property
    def layout(self) -> dict[object, int]:
        if self._layout is None:
            self._layout = {label: i for i, label in enumerate(self.labels)}
        return self._layout


@dataclass
class _KeyFilter:
    """Join keys passed sideways into a scan: only rows whose ``positions``
    (in the table's own row layout) form a key of ``build`` can join."""

    positions: list[int]
    build: KeyIndex
    label: str  # where the keys come from, e.g. ``d[k]``


class PhysicalExecutor:
    """Interprets logical plans against a database."""

    def __init__(self, database: Database, metrics: ExecutionMetrics):
        self._db = database
        self._metrics = metrics

    # ------------------------------------------------------------------ #
    def run(self, node: PlanNode) -> Intermediate:
        prepare = _TAIL_OPERATORS.get(type(node))
        if prepare is not None:
            # the conventional engine plans per query, so its tail operators
            # are prepared and run back to back; a bounded plan's skeleton
            # keeps the prepared form (``prepare_tail``) across requests
            child = self.run(node.child)
            labels, run = prepare(node, child.labels)
            return Intermediate(labels, run(child.rows, self._metrics))
        if isinstance(node, ScanNode):
            return self._scan(node)
        if isinstance(node, FilterNode):
            return self._filter(node)
        if isinstance(node, JoinNode):
            return self._join(node)
        if isinstance(node, SetOpNode):
            return self._set_op(node)
        if isinstance(node, MaterializedNode):
            return Intermediate(list(node.labels), list(node.rows))
        raise ExecutionError(f"unknown plan node {node!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    def _scan(
        self, node: ScanNode, sideways: Optional[_KeyFilter] = None
    ) -> Intermediate:
        """Read every tuple of the table (all of them count in
        ``tuples_scanned``), keep those passing the pushed-down predicate,
        and project early. With ``sideways`` keys, key membership is tested
        first — one C-level pass — so the interpreted predicate and the
        projection run on the rows that can join, and only on them."""
        start = time.perf_counter()
        table = self._db.table(node.table_name)
        labels: list[object] = [Attribute(node.binding, c) for c in node.columns]
        label = f"scan({node.table_name} as {node.binding})"

        kept: Iterable[Row] = table.rows
        if sideways is not None:
            keys = key_tuples(table.rows, sideways.positions)
            kept = compress(table.rows, map(sideways.build.__contains__, keys))
            label += f" ⋉ {sideways.label}"
        if node.predicate is not None:
            base_layout = {
                Attribute(node.binding, column): i
                for i, column in enumerate(table.schema.column_names)
            }
            kept = filter(compile_predicate(node.predicate, base_layout), kept)
        rows = list(key_tuples(kept, table.schema.positions(node.columns)))
        self._metrics.tuples_scanned += len(table)
        self._metrics.record(label, len(table), len(rows), time.perf_counter() - start)
        return Intermediate(labels, rows)

    def _filter(self, node: FilterNode) -> Intermediate:
        child = self.run(node.child)
        start = time.perf_counter()
        predicate = compile_predicate(node.predicate, child.layout)
        rows = [row for row in child.rows if predicate(row)]
        self._metrics.record(
            "filter", len(child.rows), len(rows), time.perf_counter() - start
        )
        return Intermediate(child.labels, rows)

    # ------------------------------------------------------------------ #
    def _join(self, node: JoinNode) -> Intermediate:
        if node.pairs:
            return self._hash_join(node)
        left = self.run(node.left)
        right = self.run(node.right)
        start = time.perf_counter()
        rows = [l + r for l in left.rows for r in right.rows]
        self._metrics.intermediate_rows += len(rows)
        self._metrics.record(
            "join[cross]",
            len(left.rows) + len(right.rows),
            len(rows),
            time.perf_counter() - start,
        )
        return Intermediate(left.labels + right.labels, rows)

    def _hash_join(self, node: JoinNode) -> Intermediate:
        """Build on the child the planner expects to be smaller (the left
        one on a tie), probe with the other. A probe child that is a table
        scan is handed the build table (sideways information passing):
        ``d JOIN T`` equals ``(d SEMIJOIN T) JOIN T``, multiplicities
        included, so the scan may drop every tuple whose key is not in
        ``T`` before interpreting anything on it."""
        children = (node.left, node.right)
        build, probe = (
            (0, 1) if node.left.estimated_rows <= node.right.estimated_rows else (1, 0)
        )
        build_attrs = [pair[build] for pair in node.pairs]
        probe_attrs = [pair[probe] for pair in node.pairs]

        built = self.run(children[build])
        start = time.perf_counter()
        table = group_by_key(built.rows, [built.layout[a] for a in build_attrs])
        seconds = time.perf_counter() - start
        probe_node = children[probe]
        if isinstance(probe_node, ScanNode):
            schema = self._db.table(probe_node.table_name).schema
            columns = [attr.column for attr in probe_attrs]
            origin = ",".join(dict.fromkeys(a.binding for a in build_attrs))
            probed = self._scan(
                probe_node,
                _KeyFilter(
                    schema.positions(columns),
                    table,
                    f"{origin}[{','.join(columns)}]",
                ),
            )
        else:
            probed = self.run(probe_node)

        start = time.perf_counter()
        keys = key_tuples(probed.rows, [probed.layout[a] for a in probe_attrs])
        matches = table.get
        # columns are found by label, so build-then-probe order serves
        # whichever child built
        rows = [
            match + row
            for key, row in zip(keys, probed.rows)
            for match in matches(key, ())
        ]
        self._metrics.intermediate_rows += len(rows)
        self._metrics.record(
            "join[hash]",
            len(built.rows) + len(probed.rows),
            len(rows),
            seconds + time.perf_counter() - start,
        )
        return Intermediate(built.labels + probed.labels, rows)

    # ------------------------------------------------------------------ #
    def _set_op(self, node: SetOpNode) -> Intermediate:
        left = self.run(node.left)
        right = self.run(node.right)
        start = time.perf_counter()
        if len(left.labels) != len(right.labels):
            raise ExecutionError(
                "set operation arguments have different numbers of columns"
            )
        if node.op == "UNION":
            if node.all:
                rows = left.rows + right.rows
            else:
                rows = _dedupe(left.rows + right.rows)
        elif node.op == "INTERSECT":
            if node.all:
                from collections import Counter

                counts = Counter(right.rows)
                rows = []
                for row in left.rows:
                    if counts.get(row, 0) > 0:
                        counts[row] -= 1
                        rows.append(row)
            else:
                right_set = set(right.rows)
                rows = _dedupe([row for row in left.rows if row in right_set])
        elif node.op == "EXCEPT":
            if node.all:
                from collections import Counter

                counts = Counter(right.rows)
                rows = []
                for row in left.rows:
                    if counts.get(row, 0) > 0:
                        counts[row] -= 1
                    else:
                        rows.append(row)
            else:
                right_set = set(right.rows)
                rows = _dedupe([row for row in left.rows if row not in right_set])
        else:  # pragma: no cover
            raise ExecutionError(f"unknown set operation {node.op}")
        self._metrics.record(
            node.op.lower(),
            len(left.rows) + len(right.rows),
            len(rows),
            time.perf_counter() - start,
        )
        return Intermediate(left.labels, rows)


# --------------------------------------------------------------------------- #
# row tail operators: prepared once against their input labels, run many times
# --------------------------------------------------------------------------- #
#: ``(rows, metrics) -> rows`` — one prepared tail operator. Everything that
#: depends on the plan and the input's labels alone (positions, compiled
#: expressions) is bound when it is prepared; a run reads its rows, records
#: its :class:`~repro.engine.metrics.OperationCost` and holds no state, so
#: one prepared operator serves concurrent requests.
TailRun = Callable[[list[Row], ExecutionMetrics], list[Row]]


def _layout_of(labels: Sequence[object]) -> dict[object, int]:
    return {label: i for i, label in enumerate(labels)}


def _aggregate_positions(layout: dict[object, int]) -> dict[object, int]:
    """Where an Aggregate operator below left each call's value."""
    return {
        label: index
        for label, index in layout.items()
        if isinstance(label, ast.FunctionCall)
    }


def _prepare_aggregate(
    node: AggregateNode, labels: Sequence[object]
) -> tuple[list[object], TailRun]:
    layout = _layout_of(labels)
    group_positions = [layout[attr] for attr in node.group_by]
    evaluators = [_compile_aggregate(call, layout) for call in node.calls]
    out_labels: list[object] = list(node.group_by) + list(node.calls)
    having = None
    if node.having is not None:
        out_layout = _layout_of(out_labels)
        having = compile_predicate(
            node.having, out_layout, {call: out_layout[call] for call in node.calls}
        )

    def run(rows: list[Row], metrics: ExecutionMetrics) -> list[Row]:
        start = time.perf_counter()
        groups: dict[tuple, list[Row]] = {}
        if group_positions:
            for key, row in zip(key_tuples(rows, group_positions), rows):
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = list(rows)  # scalar aggregate: one (maybe empty) group
        out = [
            key + tuple(evaluate(members) for evaluate in evaluators)
            for key, members in groups.items()
        ]
        if having is not None:
            out = [row for row in out if having(row)]
        metrics.record("aggregate", len(rows), len(out), time.perf_counter() - start)
        return out

    return out_labels, run


def _compile_aggregate(call: ast.FunctionCall, layout: dict[object, int]):
    """Return ``rows -> aggregate value`` for one call."""
    if call.name == "COUNT" and isinstance(call.args[0], ast.Star):
        if call.distinct:
            return lambda rows: len({tuple(r) for r in rows})
        return lambda rows: len(rows)

    argument = compile_expression(call.args[0], layout)

    def non_null(rows: list[Row]):
        for row in rows:
            value = argument(row)
            if value is not None:
                yield value

    name = call.name
    distinct = call.distinct
    if name == "COUNT":
        if distinct:
            return lambda rows: len(set(non_null(rows)))
        return lambda rows: sum(1 for _ in non_null(rows))
    if name in ("SUM", "AVG"):
        def agg_sum(rows: list[Row]):
            values = set(non_null(rows)) if distinct else list(non_null(rows))
            if not values:
                return None
            try:
                total = sum(values)
            except TypeError:
                raise ExecutionError(
                    f"{name} needs numeric values, got "
                    f"{', '.join(sorted({type(v).__name__ for v in values}))}"
                ) from None
            return total if name == "SUM" else total / len(values)
        return agg_sum
    if name == "MIN":
        def agg_min(rows: list[Row]):
            values = list(non_null(rows))
            return min(values) if values else None
        return agg_min
    if name == "MAX":
        def agg_max(rows: list[Row]):
            values = list(non_null(rows))
            return max(values) if values else None
        return agg_max
    raise ExecutionError(f"unsupported aggregate {name}")  # pragma: no cover


def _prepare_sort(
    node: SortNode, labels: Sequence[object]
) -> tuple[list[object], TailRun]:
    layout = _layout_of(labels)
    aggregate_values = _aggregate_positions(layout)
    # stable sorts applied last-key-first
    passes = [
        (
            compile_expression(order.expression, layout, aggregate_values),
            not order.ascending,
        )
        for order in reversed(node.order_by)
    ]

    def run(rows: list[Row], metrics: ExecutionMetrics) -> list[Row]:
        start = time.perf_counter()
        out = list(rows)
        for evaluator, descending in passes:
            out.sort(key=lambda row: _sort_key(evaluator(row)), reverse=descending)
        metrics.record("sort", len(rows), len(out), time.perf_counter() - start)
        return out

    return list(labels), run


def _prepare_project(
    node: ProjectNode, labels: Sequence[object]
) -> tuple[list[object], TailRun]:
    layout = _layout_of(labels)
    # an all-plain projection (the common case) moves columns without a
    # call per cell; ``key_tuples`` keeps the cell objects, as ``row[i]`` does
    positions = [_column_position(item.expression, layout) for item in node.items]
    evaluators = None
    if None in positions:
        aggregate_values = _aggregate_positions(layout)
        evaluators = [
            compile_expression(item.expression, layout, aggregate_values)
            for item in node.items
        ]

    def run(rows: list[Row], metrics: ExecutionMetrics) -> list[Row]:
        start = time.perf_counter()
        if evaluators is None:
            out = list(key_tuples(rows, positions))
        else:
            out = [tuple(e(row) for e in evaluators) for row in rows]
        metrics.record("project", len(rows), len(out), time.perf_counter() - start)
        return out

    return [item.name for item in node.items], run


def _prepare_distinct(
    node: DistinctNode, labels: Sequence[object]
) -> tuple[list[object], TailRun]:
    def run(rows: list[Row], metrics: ExecutionMetrics) -> list[Row]:
        start = time.perf_counter()
        out = _dedupe(rows)
        metrics.record("distinct", len(rows), len(out), time.perf_counter() - start)
        return out

    return list(labels), run


def _prepare_limit(
    node: LimitNode, labels: Sequence[object]
) -> tuple[list[object], TailRun]:
    offset = node.offset or 0
    end = offset + node.limit if node.limit is not None else None

    def run(rows: list[Row], metrics: ExecutionMetrics) -> list[Row]:
        out = rows[offset:end]
        metrics.record("limit", len(rows), len(out), 0.0)
        return out

    return list(labels), run


#: node type -> ``(node, input labels) -> (output labels, TailRun)``
_TAIL_OPERATORS: dict[type, Callable[[Any, Sequence[object]], tuple[list[object], TailRun]]] = {
    AggregateNode: _prepare_aggregate,
    SortNode: _prepare_sort,
    ProjectNode: _prepare_project,
    DistinctNode: _prepare_distinct,
    LimitNode: _prepare_limit,
}


class PreparedTail:
    """The tail operators ``attach_tail`` put above ``leaf``, prepared in
    execution order against ``leaf``'s labels: what a bounded plan's
    skeleton keeps, so that a request pays for running its tail only."""

    def __init__(self, root: PlanNode, leaf: MaterializedNode):
        nodes = []
        while root is not leaf:
            nodes.append(root)
            root = root.child
        labels: list[object] = list(leaf.labels)
        self._runs: list[TailRun] = []
        for node in reversed(nodes):
            labels, run = _TAIL_OPERATORS[type(node)](node, labels)
            self._runs.append(run)
        self.labels = labels

    def run(self, rows: list[Row], metrics: ExecutionMetrics) -> Intermediate:
        for run in self._runs:
            rows = run(rows, metrics)
        return Intermediate(self.labels, rows)


def _dedupe(rows: list[Row]) -> list[Row]:
    seen: set[Row] = set()
    out: list[Row] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _sort_key(value: Any) -> tuple:
    """NULLs first on ascending order; values assumed type-homogeneous."""
    return (value is not None, value)
