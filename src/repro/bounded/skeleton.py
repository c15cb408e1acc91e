"""Plan skeletons: a bounded plan's shape, compiled once.

BEAS decides a query once and executes it within bounds many times
(paper §3). Everything an execution needs *besides* the constants is a
function of the plan's shape — which key part of which fetch reads which
column of the intermediate, which constant parts share an equality
class, what the label list looks like after each operator, which
positions a selection compares, how the tail's expressions compile
against the final layout — and the shape is exactly what plan rebinding
preserves (:mod:`repro.bounded.rebind`). A :class:`PlanSkeleton` is that
shape, resolved and compiled by the first execution of a plan or of any
of its rebindings and kept in the slot they share
(:attr:`BoundedPlan._shape <repro.bounded.plan.BoundedPlan>`). It lives
and dies with the decision-cache entry that pins the plan, i.e. with one
(template fingerprint, arity signature, schema generation).

The skeleton holds no binding constant. A run pairs each step with the
request's own operator (``zip(skeleton.steps, plan.ops)``) and reads the
constants — a fetch's enumerated key values, a selection's value tuple —
and the deduced bound from the operator; the step supplies the rest. All
three executors run off it: :class:`~repro.bounded.executor.BoundedPlanExecutor`
in row and columnar mode and
:class:`~repro.bounded.approximation.BoundedApproximator`.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.bounded.plan import BoundedPlan, FetchOp, SelectOp
from repro.bounded.planner import equality_classes
from repro.engine.columnar import FetchChunkSpec, compile_columnar_predicate
from repro.engine.expressions import compile_predicate
from repro.engine.logical import MaterializedNode
from repro.engine.physical import ColumnarTail, PreparedTail, match_tail
from repro.engine.planner import attach_tail
from repro.errors import ExecutionError
from repro.sql.normalize import Attribute

Row = tuple


def _picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``t -> tuple(t[i] for i in positions)`` without a generator per call."""
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions)


class _KeyPlan:
    """One fetch's resolved key layout: how each X part obtains its value,
    which fetched attributes extend the row, and which must match existing
    columns. Shared by the BE Plan Executor (both modes) and the
    resource-bounded approximator.
    """

    def __init__(
        self, op: FetchOp, labels: list[object], layout: dict[object, int], classes
    ) -> None:
        parts = op.key_parts
        self.parts_len = len(parts)
        self.column_positions: list[Optional[int]] = [
            layout[part.column] if part.source == "column" else None
            for part in parts
        ]
        #: (key position, row position) of each column-sourced part
        self.column_parts = [
            (i, position)
            for i, position in enumerate(self.column_positions)
            if position is not None
        ]

        # constant parts of one equality class must take the same
        # enumerated value; parts of different classes vary independently.
        # Grouped by the class root, never by the values tuple's identity:
        # two classes handed one (interned, cached) tuple object are still
        # two factors of the key product
        groups: dict[Attribute, list[int]] = {}
        for i, part in enumerate(parts):
            if part.source != "column":
                root = classes.find(Attribute(op.binding, part.attribute))
                groups.setdefault(root, []).append(i)
        self.group_positions = list(groups.values())

        new_set = set(op.new_columns)
        self.x_new = [
            i
            for i, part in enumerate(parts)
            if Attribute(op.binding, part.attribute) in new_set
        ]
        y_names = op.constraint.y
        self.y_new = [
            i
            for i, name in enumerate(y_names)
            if Attribute(op.binding, name) in new_set
        ]
        self.y_existing = [
            (i, layout[Attribute(op.binding, name)])
            for i, name in enumerate(y_names)
            if Attribute(op.binding, name) not in new_set
        ]
        self.pick_x = _picker(self.x_new)
        self.pick_y = _picker(self.y_new)
        #: the intermediate's labels once this fetch has run
        self.labels = (
            labels
            + [Attribute(op.binding, parts[i].attribute) for i in self.x_new]
            + [Attribute(op.binding, y_names[i]) for i in self.y_new]
        )
        self.label = (
            f"fetch[{op.constraint.name}]({op.constraint.relation} as {op.binding})"
        )

    def group_values(self, op: FetchOp) -> list[tuple]:
        """The request's constants: one enumerated value list per group."""
        parts = op.key_parts
        return [parts[positions[0]].values or () for positions in self.group_positions]

    def const_keys(self, op: FetchOp) -> list[tuple]:
        """The keys this fetch enumerates from its constants alone, one
        per combination, column-sourced parts still ``None``. NULL-bearing
        combinations are skipped: a key part equal to NULL can never
        match (three-valued logic)."""
        keys = []
        for combo in itertools.product(*self.group_values(op)):
            if None in combo:
                continue
            key = [None] * self.parts_len
            for value, positions in zip(combo, self.group_positions):
                for position in positions:
                    key[position] = value
            keys.append(tuple(key))
        return keys

    def keys_for(self, row: Row, const_keys: list[tuple]) -> Iterable[tuple]:
        """The fully resolved key tuples for one input row (several when
        an IN-list enumerates constants); none when a column-sourced part
        is NULL (SQL: NULL never joins)."""
        if not self.column_parts:
            return const_keys
        values = [row[position] for _, position in self.column_parts]
        if any(value is None for value in values):
            return ()
        keys = []
        for const_key in const_keys:
            key = list(const_key)
            for (i, _), value in zip(self.column_parts, values):
                key[i] = value
            keys.append(tuple(key))
        return keys

    def chunk_spec(self, op: FetchOp, track_gather: bool) -> FetchChunkSpec:
        """The columnar fetch kernel's spec: slots are the intermediate's
        own column positions."""
        return FetchChunkSpec(
            parts_len=self.parts_len,
            column_slots=tuple(self.column_positions),
            group_value_lists=tuple(self.group_values(op)),
            group_positions=tuple(tuple(p) for p in self.group_positions),
            x_new=tuple(self.x_new),
            y_new=tuple(self.y_new),
            y_existing=tuple(self.y_existing),
            track_gather=track_gather,
        )


class _SelectPlan:
    """One select's resolved positions, compiled predicate and label."""

    def __init__(self, op: SelectOp, layout: dict[object, int]) -> None:
        self.kind = op.kind
        self.a = self.b = -1
        self.predicate = self.columnar_predicate = None
        if op.kind == "selection":
            self.a = layout[op.column]
            # the values are the request's: only the label's head is shape
            self._label = f"select {op.column} in ("
        elif op.kind == "equality":
            self.a = layout[op.column]
            self.b = layout[op.other]
            self._label = op.describe()
        else:
            self.predicate = compile_predicate(op.predicate, layout)
            self.columnar_predicate = compile_columnar_predicate(op.predicate, layout)
            self._label = op.describe()

    def label(self, op: SelectOp) -> str:
        """``op.describe()``, with everything but the constants prepared."""
        if self.kind == "selection":
            return f"{self._label}{', '.join(map(repr, op.values or ()))})"
        return self._label

    def keep(self, op: SelectOp, rows: list[Row]) -> list[Row]:
        """The rows passing the select (row mode and approximation)."""
        if self.kind == "selection":
            position = self.a
            allowed = set(op.values or ())
            return [
                row
                for row in rows
                if (value := row[position]) is not None and value in allowed
            ]
        if self.kind == "equality":
            a, b = self.a, self.b
            return [
                row for row in rows if (value := row[a]) is not None and value == row[b]
            ]
        predicate = self.predicate
        return [row for row in rows if predicate(row)]

    def keep_columnar(
        self, op: SelectOp, columns: list[list], live: Sequence[int]
    ) -> list[int]:
        """The live positions passing the select (columnar mode): only
        the selection vector shrinks."""
        if self.kind == "selection":
            column = columns[self.a]
            allowed = set(op.values or ())
            return [
                i for i in live if (value := column[i]) is not None and value in allowed
            ]
        if self.kind == "equality":
            a, b = columns[self.a], columns[self.b]
            return [i for i in live if (value := a[i]) is not None and value == b[i]]
        return self.columnar_predicate(columns, live)


Step = Union[_KeyPlan, _SelectPlan]


class PlanSkeleton:
    """The compiled, constant-free shape of one :class:`BoundedPlan`:
    one step per operator, and the tail prepared per execution mode on
    first use. Immutable once built apart from the tail memo, whose
    entries are pure functions of the shape (a concurrent duplicate build
    is benign), so any number of requests may run off one skeleton."""

    def __init__(self, plan: BoundedPlan) -> None:
        classes = equality_classes(plan.cq)
        labels: list[object] = []
        layout: dict[object, int] = {}  # of the intermediate before each op
        steps: list[Step] = []
        for op in plan.ops:
            if isinstance(op, FetchOp):
                step: Step = _KeyPlan(op, labels, layout, classes)
                labels = step.labels
                layout = {label: i for i, label in enumerate(labels)}
            elif isinstance(op, SelectOp):
                step = _SelectPlan(op, layout)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown bounded plan op {op!r}")
            steps.append(step)
        self.steps = tuple(steps)
        #: labels of the final intermediate, the tail's input
        self.labels = labels
        self._tails: dict[tuple[bool, bool], Union[PreparedTail, ColumnarTail]] = {}

    def tail(
        self, plan: BoundedPlan, *, columnar: bool = False, as_set: bool = False
    ) -> Union[PreparedTail, ColumnarTail]:
        """The conventional tail operators (aggregate, sort, project,
        distinct, limit) prepared against the final layout for one
        execution mode. ``plan`` is whichever rebinding is running: the
        tail reads the canonical query's shape, never its selection
        constants. ``as_set`` forces DISTINCT (approximate answers are a
        set; so are those of a plan that is not bag-exact)."""
        distinct = as_set or not plan.bag_exact
        tail = self._tails.get((columnar, distinct))
        if tail is None:
            leaf = MaterializedNode(self.labels, [])
            root = attach_tail(leaf, plan.cq, force_distinct=distinct)
            if columnar:
                chain = match_tail(root)
                if chain is None or chain.child is not leaf:  # pragma: no cover
                    raise ExecutionError("unexpected tail shape for a bounded plan")
                tail = ColumnarTail(chain, self.labels)
            else:
                tail = PreparedTail(root, leaf)
            self._tails[(columnar, distinct)] = tail
        return tail


def skeleton_of(plan: BoundedPlan) -> PlanSkeleton:
    """The plan's skeleton, compiled on first use and left in the slot the
    plan shares with its rebindings (two threads racing here both build
    the same pure value; one of them stays)."""
    slot = plan._shape
    skeleton = slot.skeleton
    if skeleton is None:
        skeleton = slot.skeleton = PlanSkeleton(plan)
    return skeleton
