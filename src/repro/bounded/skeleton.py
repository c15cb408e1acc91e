"""Plan skeletons: a bounded plan's shape, compiled once.

BEAS decides a query once and executes it within bounds many times
(paper §3). Everything an execution needs *besides* the constants is a
function of the plan's shape — which key part of which fetch reads which
column of the intermediate, which constant parts share an equality
class, what the label list looks like after each operator, which
positions a selection compares, how the tail's expressions compile
against the final layout — and the shape is exactly what plan rebinding
preserves (:mod:`repro.bounded.rebind`). A :class:`PlanSkeleton` is that
shape, resolved and compiled once per plan and kept in the plan's slot
(:attr:`BoundedPlan._shape <repro.bounded.plan.BoundedPlan>`). It lives
and dies with the decision-cache entry that pins the plan, i.e. with one
(template fingerprint, arity signature, schema generation).

The skeleton holds no binding constant. It numbers the plan's
constant-carrying equality classes, and a run reads each class's merged
constant tuple from a **constant vector** — one tuple per class, in that
order: the fetch keys a group of constant key parts enumerates, the
values a selection keeps, and the selection's ``OperationCost`` label.
A rebound request brings its own vector (a
:class:`~repro.bounded.rebind.Decision`'s ``constants``) and runs the
pinned plan's operators with it; any other plan runs off its own vector,
:meth:`PlanSkeleton.constants`, read from its operators. The deduced
bound and the access constraint still come from the operator
(``zip(skeleton.steps, plan.ops)``). The one executor of a bounded
plan runs off it: :class:`~repro.bounded.executor.BoundedPlanExecutor`
in row and columnar mode, under a tuple budget too (the resource-bounded
approximation), and for a partially bounded plan's prefix, whose
residual (:mod:`repro.bounded.residual`, compiled once as well) reads
its own constants from the positions after the prefix's.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.bounded.plan import BoundedPlan, FetchOp, SelectOp
from repro.bounded.planner import equality_classes
from repro.engine.columnar import ColumnarIntermediate
from repro.engine.expressions import compile_predicate
from repro.engine.logical import MaterializedNode
from repro.engine.physical import PreparedTail
from repro.engine.planner import attach_tail
from repro.errors import ExecutionError
from repro.sql.normalize import Attribute

Row = tuple
#: One merged constant tuple per constant-carrying equality class, in
#: the order a :class:`PlanSkeleton` numbers the classes.
Constants = tuple[tuple, ...]
#: Where a plan reads a class's constants: (op index, key part index) of
#: a constant key part, or (op index, None) for a selection's values.
Site = tuple[int, Optional[int]]


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
    columns. Shared by the BE Plan Executor's two modes.
    """

    def __init__(
        self,
        op: FetchOp,
        labels: list[object],
        layout: dict[object, int],
        place: Callable[[Attribute, list[Site]], int],
        index: int,
        classes,
    ) -> None:
        parts = op.key_parts
        self.parts_len = len(parts)
        #: (key position, row position) of each column-sourced part
        self.column_parts = [
            (i, layout[part.column])
            for i, part in enumerate(parts)
            if part.source == "column"
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
        #: the constant vector position each group enumerates
        self.group_slots = [
            place(root, [(index, i) for i in positions])
            for root, positions in groups.items()
        ]

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

    def const_keys(self, constants: Constants) -> list[tuple]:
        """The keys this fetch enumerates from its constants alone, one
        per combination, column-sourced parts still ``None``. NULL-bearing
        combinations are skipped: a key part equal to NULL can never
        match (three-valued logic)."""
        keys = []
        for combo in itertools.product(
            *(constants[slot] for slot in self.group_slots)
        ):
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
        return self._resolve(
            [row[position] for _, position in self.column_parts], const_keys
        )

    def keys_at(
        self, columns: Sequence[list], index: int, const_keys: list[tuple]
    ) -> Iterable[tuple]:
        """:meth:`keys_for` of physical row ``index`` of a columnar
        intermediate."""
        if not self.column_parts:
            return const_keys
        return self._resolve(
            [columns[position][index] for _, position in self.column_parts],
            const_keys,
        )

    def _resolve(self, values: list, const_keys: list[tuple]) -> Sequence[tuple]:
        if None in values:
            return ()
        if not self.group_slots:  # every part is column-sourced
            return (tuple(values),)
        keys = []
        for const_key in const_keys:
            key = list(const_key)
            for (i, _), value in zip(self.column_parts, values):
                key[i] = value
            keys.append(tuple(key))
        return keys


class _SelectPlan:
    """One select's resolved positions, compiled predicate and label."""

    def __init__(
        self,
        op: SelectOp,
        layout: dict[object, int],
        place: Callable[[Attribute, list[Site]], int],
        index: int,
        classes,
    ) -> None:
        self.kind = op.kind
        self.a = self.b = self.slot = -1
        self.predicate = None
        if op.kind == "selection":
            self.a = layout[op.column]
            #: the constant vector position of the values it keeps
            self.slot = place(classes.find(op.column), [(index, None)])
            # the values are the request's: only the label's head is shape
            self._label = f"select {op.column} in ("
        elif op.kind == "equality":
            self.a = layout[op.column]
            self.b = layout[op.other]
            self._label = op.describe()
        else:
            self.predicate = compile_predicate(op.predicate, layout)
            self._label = op.describe()

    def label(self, constants: Constants) -> str:
        """``op.describe()``, with everything but the constants prepared."""
        if self.kind == "selection":
            return f"{self._label}{', '.join(map(repr, constants[self.slot]))})"
        return self._label

    def keep(self, constants: Constants, rows: list[Row]) -> list[Row]:
        """The rows passing the select (row mode)."""
        if self.kind == "selection":
            position = self.a
            allowed = set(constants[self.slot])
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
        self, constants: Constants, intermediate: ColumnarIntermediate
    ) -> list[int]:
        """The live positions passing the select (columnar mode): only
        the selection vector shrinks. A filter tests each live row's
        tuple with the one compiled :attr:`predicate`, as :meth:`keep`
        does."""
        columns, live = intermediate.columns, intermediate.live
        if self.kind == "selection":
            column = columns[self.a]
            allowed = set(constants[self.slot])
            return [
                i for i in live if (value := column[i]) is not None and value in allowed
            ]
        if self.kind == "equality":
            a, b = columns[self.a], columns[self.b]
            return [i for i in live if (value := a[i]) is not None and value == b[i]]
        return list(itertools.compress(live, map(self.predicate, intermediate.to_rows())))


Step = Union[_KeyPlan, _SelectPlan]


class PlanSkeleton:
    """The compiled, constant-free shape of one :class:`BoundedPlan`:
    one step per operator, the numbering of its constant classes, and
    the tail prepared on first use. Immutable once built apart from the
    tail memo, whose entries are pure functions of the shape (a
    concurrent duplicate build is benign), so any number of requests may
    run off one skeleton."""

    def __init__(self, plan: BoundedPlan) -> None:
        #: the query's equality classes (shape, never constants)
        self.classes = classes = equality_classes(plan.cq)
        #: class root -> its position in a constant vector
        self.positions: dict[Attribute, int] = {}
        #: per position, every site of the plan that reads those constants
        self.sites: list[list[Site]] = []
        labels: list[object] = []
        layout: dict[object, int] = {}  # of the intermediate before each op
        steps: list[Step] = []
        for index, op in enumerate(plan.ops):
            if isinstance(op, FetchOp):
                step: Step = _KeyPlan(op, labels, layout, self._place, index, classes)
                labels = step.labels
                layout = {label: i for i, label in enumerate(labels)}
            elif isinstance(op, SelectOp):
                step = _SelectPlan(op, layout, self._place, index, classes)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown bounded plan op {op!r}")
            steps.append(step)
        self.steps = tuple(steps)
        #: labels of the final intermediate, the tail's input
        self.labels = labels
        self._tails: dict[bool, PreparedTail] = {}

    def _place(self, root: Attribute, sites: list[Site]) -> int:
        """The vector position of ``root``'s class, numbered on first
        sight, with ``sites`` filed under it."""
        position = self.positions.get(root)
        if position is None:
            position = self.positions[root] = len(self.sites)
            self.sites.append([])
        self.sites[position].extend(sites)
        return position

    def constants(self, plan: BoundedPlan) -> Constants:
        """``plan``'s own constant vector, read from its operators (the
        first site of each class: every site of a class holds its one
        merged tuple). ``plan`` is this skeleton's plan or a copy of it
        with other constants written in."""
        ops = plan.ops
        vector = []
        for sites in self.sites:
            index, part = sites[0]
            op = ops[index]
            values = op.values if part is None else op.key_parts[part].values
            vector.append(values or ())
        return tuple(vector)

    def tail(self, plan: BoundedPlan, *, as_set: bool = False) -> PreparedTail:
        """The conventional tail operators (aggregate, sort, project,
        distinct, limit) prepared against the final layout: the one tail
        of every execution mode. ``plan`` is the plan running (the pinned
        one, or a patched copy of it): the tail reads the canonical
        query's shape, never its selection constants. ``as_set`` forces
        DISTINCT (approximate answers are a set; so are those of a plan
        that is not bag-exact)."""
        distinct = as_set or not plan.bag_exact
        tail = self._tails.get(distinct)
        if tail is None:
            leaf = MaterializedNode(self.labels, [])
            root = attach_tail(leaf, plan.cq, force_distinct=distinct)
            tail = self._tails[distinct] = PreparedTail(root, leaf)
        return tail


def skeleton_of(plan: BoundedPlan) -> PlanSkeleton:
    """The plan's skeleton, compiled on first use and left in the slot the
    plan shares with its patched copies (two threads racing here both
    build the same pure value; one of them stays)."""
    slot = plan._shape
    skeleton = slot.skeleton
    if skeleton is None:
        skeleton = slot.skeleton = PlanSkeleton(plan)
    return skeleton
