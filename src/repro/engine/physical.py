"""Physical operators: interpret a logical plan over a Database.

Everything is materialised (lists of row tuples) — predictable, easy to
meter, and appropriate for an in-memory engine. Each operator records an
:class:`~repro.engine.metrics.OperationCost` so the Fig.-3-style analyzer
can break a query's cost down per operation.

The tail operators (aggregate, sort, project, distinct, limit) come in one
prepare-then-run form: preparing binds everything that depends on the plan
and the input's labels (positions, compiled expressions), running reads
rows. The conventional engine prepares and runs each back to back; a
bounded plan's skeleton keeps the prepared tail (:class:`PreparedTail`,
:class:`ColumnarTail`) and runs it once per request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.normalize import Attribute
from repro.storage.database import Database
from repro.engine.columnar import (
    ColumnarIntermediate,
    _column_position,
    compile_columnar_values,
)
from repro.engine.expressions import compile_expression, compile_predicate
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
from repro.engine.profiles import EngineProfile

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


def _busy_work(row: Row, units: int) -> None:
    """Honest per-row overhead work for comparator profiles (see profiles.py)."""
    for _ in range(units):
        list(row)


def _tuples(rows: Iterable[Row], positions: Sequence[int]) -> Iterator[tuple]:
    """``tuple(row[i] for i in positions)`` for each row, with no generator
    per row: early projections and join keys go through this one helper.

    One column still yields 1-tuples (``itemgetter(i)`` alone would yield
    the bare cell), so join keys are tuples at every arity: ``None in key``
    and the dict's identity-then-equality lookup see NULL and NaN cells the
    same way whatever the key width."""
    if not positions:
        return (() for _ in rows)
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions), rows)


def _build(rows: list[Row], keys: Sequence[int]) -> dict[tuple, list[Row]]:
    """The hash join's build table. NULL never joins: a key containing
    ``None`` is not entered, so no probe key containing one can hit."""
    table: dict[tuple, list[Row]] = {}
    for key, row in zip(_tuples(rows, keys), rows):
        if None not in key:
            table.setdefault(key, []).append(row)
    return table


@dataclass
class _KeyFilter:
    """Join keys passed sideways into a scan: only rows whose ``positions``
    (in the table's own row layout) form a key of ``build`` can join."""

    positions: list[int]
    build: dict[tuple, list[Row]]
    label: str  # where the keys come from, e.g. ``__bounded__[pnum]``


class PhysicalExecutor:
    """Interprets logical plans against a database under a profile."""

    def __init__(
        self,
        database: Database,
        profile: EngineProfile,
        metrics: ExecutionMetrics,
    ):
        self._db = database
        self._profile = profile
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

        overhead = self._profile.row_overhead
        if overhead:
            for row in table.rows:
                _busy_work(row, overhead)
        kept: Iterable[Row] = table.rows
        if sideways is not None:
            label += f" ⋉ {sideways.label}"
            keys = _tuples(table.rows, sideways.positions)
            kept = compress(kept, map(sideways.build.__contains__, keys))
        if node.predicate is not None:
            base_layout = {
                Attribute(node.binding, column): i
                for i, column in enumerate(table.schema.column_names)
            }
            kept = filter(compile_predicate(node.predicate, base_layout), kept)
        rows = list(_tuples(kept, table.schema.positions(node.columns)))
        self._metrics.tuples_scanned += len(table)
        self._metrics.record(
            label, len(table), len(rows), time.perf_counter() - start
        )
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
        algorithm = self._profile.join_algorithm if node.pairs else "cross"
        if algorithm == "hash":
            return self._hash_join(node)
        left = self.run(node.left)
        right = self.run(node.right)
        start = time.perf_counter()
        if algorithm == "cross":
            rows = [l + r for l in left.rows for r in right.rows]
        else:
            left_keys = [left.layout[a] for a, _ in node.pairs]
            right_keys = [right.layout[b] for _, b in node.pairs]
            if algorithm == "sort_merge":
                rows = self._sort_merge_join(
                    left.rows, right.rows, left_keys, right_keys
                )
            else:
                rows = self._block_nested_join(
                    left.rows, right.rows, left_keys, right_keys
                )
        self._metrics.intermediate_rows += len(rows)
        self._metrics.record(
            f"join[{algorithm}]",
            len(left.rows) + len(right.rows),
            len(rows),
            time.perf_counter() - start,
        )
        return Intermediate(left.labels + right.labels, rows)

    def _hash_join(self, node: JoinNode) -> Intermediate:
        """Build on the child the planner expects to be smaller, probe
        with the other. A probe child that is a table scan is handed the
        build table (sideways information passing): ``d JOIN T`` equals
        ``(d SEMIJOIN T) JOIN T``, multiplicities included, so the scan may
        drop every tuple whose key is not in ``T`` before interpreting
        anything on it."""
        children = (node.left, node.right)
        build, probe = (
            (0, 1) if node.left.estimated_rows <= node.right.estimated_rows else (1, 0)
        )
        build_attrs = [pair[build] for pair in node.pairs]
        probe_attrs = [pair[probe] for pair in node.pairs]

        built = self.run(children[build])
        start = time.perf_counter()
        table = _build(built.rows, [built.layout[a] for a in build_attrs])
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
        keys = _tuples(probed.rows, [probed.layout[a] for a in probe_attrs])
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

    @staticmethod
    def _sort_merge_join(
        left_rows: list[Row],
        right_rows: list[Row],
        left_keys: list[int],
        right_keys: list[int],
    ) -> list[Row]:
        def keyed(rows: list[Row], keys: list[int]) -> list[tuple[tuple, Row]]:
            out = [
                (key, row)
                for key, row in zip(_tuples(rows, keys), rows)
                if None not in key
            ]
            out.sort(key=itemgetter(0))
            return out

        left_sorted = keyed(left_rows, left_keys)
        right_sorted = keyed(right_rows, right_keys)
        out: list[Row] = []
        i = j = 0
        while i < len(left_sorted) and j < len(right_sorted):
            lk = left_sorted[i][0]
            rk = right_sorted[j][0]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                # gather the equal-key runs and emit their product
                i_end = i
                while i_end < len(left_sorted) and left_sorted[i_end][0] == lk:
                    i_end += 1
                j_end = j
                while j_end < len(right_sorted) and right_sorted[j_end][0] == rk:
                    j_end += 1
                for _, lrow in left_sorted[i:i_end]:
                    for _, rrow in right_sorted[j:j_end]:
                        out.append(lrow + rrow)
                i, j = i_end, j_end
        return out

    def _block_nested_join(
        self,
        left_rows: list[Row],
        right_rows: list[Row],
        left_keys: list[int],
        right_keys: list[int],
    ) -> list[Row]:
        block = self._profile.block_size
        out: list[Row] = []
        for offset in range(0, len(left_rows), block):
            chunk = left_rows[offset : offset + block]
            for rrow in right_rows:
                rkey = tuple(rrow[i] for i in right_keys)
                if None in rkey:
                    continue
                for lrow in chunk:
                    if tuple(lrow[i] for i in left_keys) == rkey:
                        out.append(lrow + rrow)
        return out

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
            for key, row in zip(_tuples(rows, group_positions), rows):
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
    if name == "SUM":
        def agg_sum(rows: list[Row]):
            values = set(non_null(rows)) if distinct else list(non_null(rows))
            return sum(values) if values else None
        return agg_sum
    if name == "AVG":
        def agg_avg(rows: list[Row]):
            values = (
                list(set(non_null(rows))) if distinct else list(non_null(rows))
            )
            return sum(values) / len(values) if values else None
        return agg_avg
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
    # call per cell; ``_tuples`` keeps the cell objects, as ``row[i]`` does
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
            out = list(_tuples(rows, positions))
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


@dataclass
class _TailChain:
    """The canonical tail shape ``attach_tail`` produces, root to leaf:
    Limit? -> Distinct? -> Project -> Sort? -> Aggregate? -> child."""

    limit: Optional[LimitNode]
    distinct: Optional[DistinctNode]
    project: ProjectNode
    sort: Optional[SortNode]
    aggregate: Optional[AggregateNode]
    child: PlanNode


def match_tail(node: PlanNode) -> Optional[_TailChain]:
    """Recognise the canonical tail chain; None -> run row-wise."""
    limit = distinct = sort = aggregate = None
    if isinstance(node, LimitNode):
        limit = node
        node = node.child
    if isinstance(node, DistinctNode):
        distinct = node
        node = node.child
    if not isinstance(node, ProjectNode):
        return None
    project = node
    node = node.child
    if isinstance(node, SortNode):
        sort = node
        node = node.child
    if isinstance(node, AggregateNode):
        aggregate = node
        node = node.child
    return _TailChain(limit, distinct, project, sort, aggregate, node)


def _row_tuples(columns: list[list], indices: Sequence[int]) -> list[Row]:
    return [tuple(column[i] for column in columns) for i in indices]


class ColumnarTail:
    """Batch-aware tail operators over a :class:`ColumnarIntermediate`,
    prepared once against the labels of the intermediate they will read
    (the columnar counterpart of :class:`PreparedTail`; a run keeps its
    state in locals, so one instance serves concurrent requests).

    The tail is consumed in batches of ``rows_per_batch`` live rows:
    aggregation folds batch streams into per-group accumulators, DISTINCT
    keeps one seen-set across batches, and LIMIT stops pulling batches as
    soon as the cutoff is reached (slicing mid-batch). Operation labels
    and tuple counts match the row operators, so Fig.-3-style breakdowns
    compare across modes; only ``ExecutionMetrics.batches`` is new.
    """

    def __init__(self, chain: _TailChain, labels: Sequence[object]):
        labels = list(labels)
        self._aggregate: Optional[tuple] = None
        if chain.aggregate is not None:
            node = chain.aggregate
            layout = _layout_of(labels)
            accumulators = [_columnar_accumulator(call) for call in node.calls]
            labels = list(node.group_by) + list(node.calls)
            having = None
            if node.having is not None:
                out_layout = _layout_of(labels)
                having = compile_predicate(
                    node.having,
                    out_layout,
                    {call: out_layout[call] for call in node.calls},
                )
            self._aggregate = (
                [layout[attr] for attr in node.group_by],
                [(make, update, finalize) for make, update, finalize, _ in accumulators],
                # per accumulator, what it is fed per batch: nothing
                # (COUNT(*)), whole rows (COUNT(DISTINCT *)), or its argument
                [
                    None
                    if mode == "count_star"
                    else _row_tuples
                    if mode == "row"
                    else compile_columnar_values(mode, layout)
                    for _, _, _, mode in accumulators
                ],
                labels,
                having,
            )
        layout = _layout_of(labels)
        aggregate_values = _aggregate_positions(layout)
        # stable sorts applied last-key-first, exactly like the row operator
        self._sort_passes = [
            (
                compile_columnar_values(order.expression, layout, aggregate_values),
                not order.ascending,
            )
            for order in reversed(chain.sort.order_by if chain.sort is not None else ())
        ]
        self._sorted = chain.sort is not None
        # per output column: the position it copies, or its compiled expression
        self._outputs: list = []
        for item in chain.project.items:
            position = _column_position(item.expression, layout)
            self._outputs.append(
                position
                if position is not None
                else compile_columnar_values(item.expression, layout, aggregate_values)
            )
        self._distinct = chain.distinct is not None
        self._limited = chain.limit is not None
        self._offset = (chain.limit.offset or 0) if chain.limit is not None else 0
        self._end: Optional[int] = None
        if chain.limit is not None and chain.limit.limit is not None:
            self._end = self._offset + chain.limit.limit
        self.labels: list[object] = [item.name for item in chain.project.items]

    # ------------------------------------------------------------------ #
    def run(
        self,
        source: ColumnarIntermediate,
        metrics: ExecutionMetrics,
        rows_per_batch: int,
    ) -> Intermediate:
        metrics.rows_per_batch = rows_per_batch
        if self._aggregate is not None:
            source = self._run_aggregate(source, metrics, rows_per_batch)
        if self._sorted:
            source = self._run_sort(source, metrics)
        return Intermediate(self.labels, self._stream(source, metrics, rows_per_batch))

    # ------------------------------------------------------------------ #
    def _run_aggregate(
        self, inter: ColumnarIntermediate, metrics: ExecutionMetrics, rows_per_batch: int
    ) -> ColumnarIntermediate:
        start = time.perf_counter()
        group_positions, accumulators, feeds, labels, having = self._aggregate
        groups: dict[tuple, list] = {}
        rows_in = 0

        # fast path: grouped COUNT(*) folds to a pure counting pass
        counting_only = bool(group_positions) and all(feed is None for feed in feeds)

        for batch in inter.iter_batches(rows_per_batch):
            metrics.batches += 1
            rows_in += len(batch)
            if group_positions:
                group_columns = [
                    [inter.columns[p][i] for i in batch] for p in group_positions
                ]
                keys: Sequence[tuple] = list(zip(*group_columns))
            else:
                keys = [()] * len(batch)
            if counting_only:
                for key in keys:
                    states = groups.get(key)
                    if states is None:
                        groups[key] = [[1] for _ in accumulators]
                    else:
                        for state in states:
                            state[0] += 1
                continue
            value_lists = [
                feed(inter.columns, batch) if feed is not None else None
                for feed in feeds
            ]
            if len(accumulators) == 1:
                # hoisted single-aggregate loop (no per-row zip dispatch)
                make, update, _ = accumulators[0]
                values = value_lists[0]
                for j, key in enumerate(keys):
                    states = groups.get(key)
                    if states is None:
                        states = [make()]
                        groups[key] = states
                    update(states[0], values[j] if values is not None else None)
                continue
            for j, key in enumerate(keys):
                states = groups.get(key)
                if states is None:
                    states = [make() for make, _, _ in accumulators]
                    groups[key] = states
                for state, (_, update, _), values in zip(
                    states, accumulators, value_lists
                ):
                    update(state, values[j] if values is not None else None)

        if not group_positions and not groups:
            # scalar aggregate over no rows still yields one group
            groups[()] = [make() for make, _, _ in accumulators]

        rows = [
            key
            + tuple(
                finalize(state)
                for state, (_, _, finalize) in zip(states, accumulators)
            )
            for key, states in groups.items()
        ]
        if having is not None:
            rows = [row for row in rows if having(row)]
        metrics.record("aggregate", rows_in, len(rows), time.perf_counter() - start)
        return ColumnarIntermediate.from_rows(labels, rows)

    # ------------------------------------------------------------------ #
    def _run_sort(
        self, inter: ColumnarIntermediate, metrics: ExecutionMetrics
    ) -> ColumnarIntermediate:
        start = time.perf_counter()
        indices = list(inter.live)
        for values_of, descending in self._sort_passes:
            values = values_of(inter.columns, indices)
            ranks = sorted(
                range(len(indices)),
                key=lambda k: _sort_key(values[k]),
                reverse=descending,
            )
            indices = [indices[k] for k in ranks]
        metrics.record("sort", len(indices), len(indices), time.perf_counter() - start)
        return ColumnarIntermediate(
            inter.labels, inter.columns, inter.count, sel=indices
        )

    # ------------------------------------------------------------------ #
    def _stream(
        self, inter: ColumnarIntermediate, metrics: ExecutionMetrics, rows_per_batch: int
    ) -> list[Row]:
        """Project -> distinct -> limit over the batch stream, with an
        early stop once LIMIT is satisfied mid-batch."""
        offset, end = self._offset, self._end
        seen: Optional[set] = set() if self._distinct else None
        out_rows: list[Row] = []
        project_in = project_out = distinct_out = position = 0
        project_seconds = distinct_seconds = 0.0
        stop = False

        for batch in inter.iter_batches(rows_per_batch):
            metrics.batches += 1
            project_in += len(batch)
            stage_start = time.perf_counter()
            gathered = [
                [inter.columns[output][i] for i in batch]
                if isinstance(output, int)
                else output(inter.columns, batch)
                for output in self._outputs
            ]
            rows: list[Row] = list(zip(*gathered)) if gathered else [()] * len(batch)
            project_out += len(rows)
            project_seconds += time.perf_counter() - stage_start

            if seen is not None:
                stage_start = time.perf_counter()
                fresh: list[Row] = []
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        fresh.append(row)
                rows = fresh
                distinct_out += len(rows)
                distinct_seconds += time.perf_counter() - stage_start

            if self._limited:
                for row in rows:
                    if end is not None and position >= end:
                        stop = True
                        break
                    if position >= offset:
                        out_rows.append(row)
                    position += 1
                if stop:
                    break
            else:
                out_rows.extend(rows)

        metrics.record("project", project_in, project_out, project_seconds)
        if self._distinct:
            metrics.record("distinct", project_out, distinct_out, distinct_seconds)
        if self._limited:
            limit_in = distinct_out if self._distinct else project_out
            metrics.record("limit", limit_in, len(out_rows), 0.0)
        return out_rows


def _columnar_accumulator(call: ast.FunctionCall):
    """Streaming accumulator for one aggregate call.

    Returns ``(make, update, finalize, mode)`` where ``mode`` selects the
    per-batch input: ``"count_star"`` (no argument; eligible for the
    counting fast path), ``"row"`` (full row tuples, for
    ``COUNT(DISTINCT *)``), or the argument expression itself. Finalised
    values match
    :func:`_compile_aggregate` exactly — same NULL
    handling and the same accumulation order for float sums.
    """
    if call.name == "COUNT" and isinstance(call.args[0], ast.Star):
        if call.distinct:
            return (set, lambda s, v: s.add(v), len, "row")
        return (
            lambda: [0],
            lambda s, v: s.__setitem__(0, s[0] + 1),
            lambda s: s[0],
            "count_star",
        )

    argument = call.args[0]
    name = call.name
    if name == "COUNT":
        if call.distinct:

            def update_count_distinct(s: set, v) -> None:
                if v is not None:
                    s.add(v)

            return (set, update_count_distinct, len, argument)

        def update_count(s: list, v) -> None:
            if v is not None:
                s[0] += 1

        return (lambda: [0], update_count, lambda s: s[0], argument)
    if name == "SUM":
        if call.distinct:

            def update_sum_distinct(s: set, v) -> None:
                if v is not None:
                    s.add(v)

            return (
                set,
                update_sum_distinct,
                lambda s: sum(s) if s else None,
                argument,
            )

        def update_sum(s: list, v) -> None:
            if v is not None:
                s[0] += v
                s[1] = True

        return (
            lambda: [0, False],
            update_sum,
            lambda s: s[0] if s[1] else None,
            argument,
        )
    if name == "AVG":
        if call.distinct:

            def update_avg_distinct(s: set, v) -> None:
                if v is not None:
                    s.add(v)

            return (
                set,
                update_avg_distinct,
                lambda s: sum(s) / len(s) if s else None,
                argument,
            )

        def update_avg(s: list, v) -> None:
            if v is not None:
                s[0] += v
                s[1] += 1

        return (
            lambda: [0, 0],
            update_avg,
            lambda s: s[0] / s[1] if s[1] else None,
            argument,
        )
    if name == "MIN":

        def update_min(s: list, v) -> None:
            if v is not None and (not s[1] or v < s[0]):
                s[0] = v
                s[1] = True

        return (
            lambda: [None, False],
            update_min,
            lambda s: s[0] if s[1] else None,
            argument,
        )
    if name == "MAX":

        def update_max(s: list, v) -> None:
            if v is not None and (not s[1] or v > s[0]):
                s[0] = v
                s[1] = True

        return (
            lambda: [None, False],
            update_max,
            lambda s: s[0] if s[1] else None,
            argument,
        )
    raise ExecutionError(f"unsupported aggregate {name}")  # pragma: no cover


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
