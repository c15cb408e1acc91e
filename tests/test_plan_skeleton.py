"""Plan skeletons, against the per-request interpreter they replaced.

``ReferenceInterpreter`` below runs a bounded plan the way the parent
commit (PR 15) did: for every request it resolves each fetch's key layout
(``ReferenceKeyPlan``), rebuilds a ``layout`` dict per intermediate,
compiles every pushed-down predicate and projected expression, renders
each select's label with ``op.describe()`` and hangs a fresh tail tree
under the conventional ``PhysicalExecutor``. It survives only here, as
the oracle. The live executors — row, columnar, approximate — take all of
that from one :class:`~repro.bounded.skeleton.PlanSkeleton` per plan
shape; rows (list-equal), columns, ``tuples_fetched``,
``intermediate_rows`` and every ``OperationCost`` row may not move, and a
rebound plan must stay ``==`` to a freshly decided one.

The second half holds what the change is for, as counts and lifetimes:
after a template's first request, further cold bindings construct no key
plan, attach no tail, compile nothing and run no BE Checker; the
skeleton dies with its generation-keyed decision; it never crosses a
pickle boundary; and eight threads may run off one.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import pickle
import sys
import threading
import time
import weakref
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    BoundedPlanExecutor,
    ConventionalEngine,
    Database,
    DatabaseSchema,
    DataType,
    Session,
    TableSchema,
)
from repro.bounded import skeleton as skeleton_module
from repro.bounded.approximation import BoundedApproximator
from repro.bounded.plan import BoundedPlan, FetchOp, KeyPart, SelectOp
from repro.bounded.rebind import build_rebind_template
from repro.bounded.skeleton import skeleton_of
from repro.engine import columnar, expressions, physical
from repro.engine.expressions import compile_predicate
from repro.engine.logical import MaterializedNode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PhysicalExecutor
from repro.engine.planner import attach_tail
from repro.engine.profiles import EngineProfile
from repro.errors import ExecutionError
from repro.serving.params import rebind_signature, resolve_overrides
from repro.sql.normalize import Attribute, normalize
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries
from tests.conftest import example1_access_schema, example1_database
from tests.reference_evaluator import reference_execute

_NEUTRAL_PROFILE = EngineProfile(name="beas-tail", join_algorithm="hash", row_overhead=0)


# --------------------------------------------------------------------------- #
# the oracle: the row interpreter's per-request set-up at the parent commit
# --------------------------------------------------------------------------- #
class ReferenceKeyPlan:
    """The parent's ``_KeyPlan``: resolved from the op and the current
    layout for every fetch of every request. Constant parts are grouped by
    ``id(values)`` — the defect ``TestConstantGroups`` pins."""

    def __init__(self, op: FetchOp, layout: dict[object, int]):
        self.column_positions: list[Optional[int]] = []
        const_values: list[Optional[tuple]] = []
        for part in op.key_parts:
            if part.source == "column":
                self.column_positions.append(layout[part.column])
                const_values.append(None)
            else:
                self.column_positions.append(None)
                const_values.append(part.values or ())
        const_groups: dict[int, list[int]] = {}
        for i, values in enumerate(const_values):
            if values is not None:
                const_groups.setdefault(id(values), []).append(i)
        self.group_value_lists = [
            const_values[positions[0]] for positions in const_groups.values()
        ]
        self.group_positions = list(const_groups.values())
        new_set = set(op.new_columns)
        self.x_new = [
            i
            for i, part in enumerate(op.key_parts)
            if Attribute(op.binding, part.attribute) in new_set
        ]
        y_names = op.constraint.y
        self.y_new = [
            i for i, name in enumerate(y_names) if Attribute(op.binding, name) in new_set
        ]
        self.y_existing = [
            (i, layout[Attribute(op.binding, name)])
            for i, name in enumerate(y_names)
            if Attribute(op.binding, name) not in new_set
        ]
        self.new_labels = [
            Attribute(op.binding, op.key_parts[i].attribute) for i in self.x_new
        ] + [Attribute(op.binding, y_names[i]) for i in self.y_new]

    def keys_for(self, row: tuple, key_parts_len: int):
        combos = (
            (combo for combo in itertools.product(*self.group_value_lists) if None not in combo)
            if self.group_value_lists
            else ((),)
        )
        for combo in combos:
            key = [None] * key_parts_len
            for group_index, positions in enumerate(self.group_positions):
                for position in positions:
                    key[position] = combo[group_index]
            valid = True
            for i, position in enumerate(self.column_positions):
                if position is not None:
                    value = row[position]
                    if value is None:
                        valid = False
                        break
                    key[i] = value
            if valid:
                yield tuple(key)


class ReferenceInterpreter:
    """The parent's ``BoundedPlanExecutor`` row mode and, with ``budget``,
    its ``BoundedApproximator``: nothing survives from one call to the
    next."""

    def __init__(self, catalog, *, dedup_keys: bool = False):
        self._catalog = catalog
        self._dedup_keys = dedup_keys

    def execute(self, plan: BoundedPlan, budget: Optional[int] = None):
        """-> (columns, rows, metrics, keys dropped per fetch)."""
        metrics = ExecutionMetrics()
        remaining = budget
        dropped: list[int] = []
        intermediate = Intermediate(labels=[], rows=[()])
        for op in plan.ops:
            if isinstance(op, FetchOp):
                intermediate, used, lost = self._fetch(op, intermediate, metrics, remaining)
                dropped.append(lost)
                if remaining is not None:
                    remaining -= used
            else:
                intermediate = self._select(op, intermediate, metrics, budget is None)
        tail = attach_tail(
            MaterializedNode(intermediate.labels, intermediate.rows),
            plan.cq,
            force_distinct=budget is not None or not plan.bag_exact,
        )
        final = PhysicalExecutor(self._catalog.database, _NEUTRAL_PROFILE, metrics).run(tail)
        columns = [label if isinstance(label, str) else str(label) for label in final.labels]
        return columns, final.rows, metrics, dropped

    def _fetch(self, op, intermediate, metrics, remaining):
        index = self._catalog.index_for(op.constraint)
        key_plan = ReferenceKeyPlan(op, intermediate.layout)
        labels = intermediate.labels + key_plan.new_labels
        parts_len = len(op.key_parts)
        cache: dict[tuple, list[tuple]] = {}
        fetched = dropped = 0
        exhausted = False
        out_rows: list[tuple] = []
        for row in intermediate.rows:
            for key_tuple in key_plan.keys_for(row, parts_len):
                if exhausted:
                    dropped += 1
                    continue
                if self._dedup_keys and key_tuple in cache:
                    bucket = cache[key_tuple]
                else:
                    bucket = index.fetch(key_tuple)
                    if remaining is not None and fetched + len(bucket) > remaining:
                        exhausted = True
                        dropped += 1
                        continue
                    cache[key_tuple] = bucket
                    fetched += len(bucket)
                x_extension = tuple(key_tuple[i] for i in key_plan.x_new)
                for y_value in bucket:
                    if any(y_value[i] != row[pos] for i, pos in key_plan.y_existing):
                        continue
                    out_rows.append(
                        row + x_extension + tuple(y_value[i] for i in key_plan.y_new)
                    )
        if fetched > op.access_bound:
            raise ExecutionError(f"fetch {op.constraint.name} exceeded its bound")
        metrics.tuples_fetched += fetched
        if remaining is None:  # the approximator records no fetch rows
            metrics.intermediate_rows += len(out_rows)
            metrics.record(
                f"fetch[{op.constraint.name}]({op.constraint.relation} as {op.binding})",
                len(intermediate.rows),
                len(out_rows),
                0.0,
            )
        return Intermediate(labels, out_rows), fetched, dropped

    @staticmethod
    def _select(op: SelectOp, intermediate, metrics, record: bool):
        layout = intermediate.layout
        if op.kind == "selection":
            position = layout[op.column]
            allowed = set(op.values or ())
            rows = [
                row
                for row in intermediate.rows
                if row[position] is not None and row[position] in allowed
            ]
        elif op.kind == "equality":
            a, b = layout[op.column], layout[op.other]
            rows = [row for row in intermediate.rows if row[a] is not None and row[a] == row[b]]
        else:
            predicate = compile_predicate(op.predicate, layout)
            rows = [row for row in intermediate.rows if predicate(row)]
        if record:
            metrics.record(op.describe(), len(intermediate.rows), len(rows), 0.0)
        return Intermediate(intermediate.labels, rows)


def profile_of(metrics: ExecutionMetrics, *, before: Optional[str] = None):
    operations = [(op.label, op.tuples_in, op.tuples_out) for op in metrics.operations]
    if before is not None:
        operations = operations[: [label for label, _, _ in operations].index(before)]
    return (metrics.tuples_fetched, metrics.intermediate_rows, operations)


def assert_modes_match_reference(catalog, plan: BoundedPlan, *, dedup_keys=False):
    """Row and columnar answer list-equal to the reference, with its
    accounting; the approximator (under a budget that truncates and one
    that does not) equals the reference's truncating run."""
    reference = ReferenceInterpreter(catalog, dedup_keys=dedup_keys)
    columns, rows, metrics, _ = reference.execute(plan)
    cq = plan.cq
    for mode in ("row", "columnar"):
        live = BoundedPlanExecutor(
            catalog, executor=mode, rows_per_batch=3, dedup_keys=dedup_keys
        ).execute(plan)
        assert live.rows == rows, mode
        assert live.columns == columns, mode
        # the batch tail stops pulling batches once LIMIT is met (at the
        # parent too), so under a LIMIT its project / distinct / limit rows
        # may count fewer tuples in than the row operators'
        streamed = "project" if mode == "columnar" and cq.limit is not None else None
        assert profile_of(live.metrics, before=streamed) == profile_of(
            metrics, before=streamed
        ), mode
    if cq.has_aggregates or cq.group_by or cq.having is not None or dedup_keys:
        return rows
    for budget in (max(metrics.tuples_fetched // 2, 0), plan.access_bound):
        columns, rows_within, within, dropped = reference.execute(plan, budget)
        approximate = BoundedApproximator(catalog).execute(plan, budget)
        assert approximate.rows == rows_within, budget
        assert approximate.columns == columns
        assert approximate.tuples_fetched == within.tuples_fetched
        assert approximate.complete == (not any(dropped))
        assert profile_of(approximate.metrics) == profile_of(within)
    return rows


# --------------------------------------------------------------------------- #
# Q1–Q10 over the TLC data, with rebinding
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tlc():
    dataset = generate_tlc(2, 42)
    return dataset, BEAS(dataset.database, tlc_access_schema())


def _slot_pools(database, prepared) -> dict[str, list]:
    """Per slot of a prepared query, every distinct value the data holds
    for its column."""
    occurrences = normalize(prepared._prepared.statement, database.schema).occurrences
    pools = {}
    for name in prepared.slots:
        binding, column = name.split(".")
        table = database.table(occurrences[binding])
        position = table.schema.column_names.index(column)
        pools[name] = sorted(
            {row[position] for row in table.rows if row[position] is not None}
        )
    return pools


def _bindings(pools: dict[str, list], count: int, stride: int) -> list[dict]:
    return [
        {
            name: pool[(step * stride + 3 * k) % len(pool)]
            for k, (name, pool) in enumerate(sorted(pools.items()))
        }
        for step in range(count)
    ]


@pytest.mark.parametrize("index", range(10), ids=lambda i: f"Q{i + 1}")
def test_tlc_rebound_plans_match_reference_and_fresh_plans(tlc, index):
    dataset, beas = tlc
    query = tlc_queries(dataset.params)[index]
    session = Session(beas=beas)
    prepared = session.query(query.sql)
    host = ConventionalEngine(dataset.database)
    pinned = None
    for binding in _bindings(_slot_pools(dataset.database, prepared), 6, 7):
        decision = prepared.bind(binding).decide()
        plan = decision.coverage.plan
        assert isinstance(plan, BoundedPlan)
        statement = prepared._prepared.binding(binding).statement
        if pinned is None:
            assert decision.provenance == "fresh"
            pinned = plan
        else:
            assert decision.provenance == "rebound"
            # the patched plan the decision, explain and the subsumption
            # index read is the plan a fresh BE Checker run produces ...
            fresh = BEAS(dataset.database, tlc_access_schema()).check(statement)
            assert plan == fresh.plan and repr(plan) == repr(fresh.plan)
            # ... and it carries the skeleton compiled for the pinned plan
            assert plan._shape is pinned._shape
        rows = assert_modes_match_reference(beas.catalog, plan)
        expected = host.execute(statement).rows
        if decision.coverage.bag_exact:
            assert sorted(rows, key=repr) == sorted(expected, key=repr)
        else:
            assert set(rows) == set(expected)
    assert pinned._shape.skeleton is not None


# --------------------------------------------------------------------------- #
# generated single-block shapes over a small two-table database
# --------------------------------------------------------------------------- #
def small_db(r_rows, s_rows) -> Database:
    db = Database(
        DatabaseSchema(
            [
                TableSchema(
                    "r",
                    [("a", DataType.INT), ("b", DataType.STRING), ("c", DataType.INT),
                     ("d", DataType.FLOAT)],
                ),
                TableSchema("s", [("c", DataType.INT), ("e", DataType.INT)]),
            ]
        )
    )
    for row in r_rows:
        db.insert("r", row)
    for row in s_rows:
        db.insert("s", row)
    return db


SMALL_SCHEMA = [
    AccessConstraint("r", ["a", "b"], ["c", "d"], 40, name="r_ab"),
    AccessConstraint("s", ["c"], ["e"], 40, name="s_c"),
]

# small domains: duplicate rows, NULL payloads and NULL join keys
_r_rows = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2]),
        st.sampled_from(["x", "y"]),
        st.sampled_from([0, 1, 2, None]),
        st.sampled_from([0.5, 1.5, None]),
    ),
    max_size=12,
)
_s_rows = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, None]), st.sampled_from([0, 1, 2, 3, None])),
    max_size=10,
)
_a_values = st.lists(st.sampled_from([0, 1, 2, 7]), min_size=1, max_size=3)
_b_values = st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=2)
_shape = st.sampled_from(
    [
        "SELECT r.c, r.d FROM r WHERE {where}",
        "SELECT DISTINCT r.c FROM r WHERE {where}",
        "SELECT r.c, r.d FROM r WHERE {where} AND r.d > 0.7",
        "SELECT r.d, r.c + 1 AS n FROM r WHERE {where} ORDER BY n, r.d LIMIT 4",
        "SELECT r.a, s.e FROM r, s WHERE {where} AND r.c = s.c",
        "SELECT DISTINCT s.e FROM r, s WHERE {where} AND r.c = s.c AND s.e <> 2",
        "SELECT r.b, COUNT(DISTINCT r.c) AS n, MAX(r.d) AS m FROM r WHERE {where} GROUP BY r.b",
        "SELECT r.a, MIN(s.e) AS m FROM r, s WHERE {where} AND r.c = s.c "
        "GROUP BY r.a HAVING MIN(s.e) >= 0 ORDER BY r.a DESC",
    ]
)


def _in_list(column: str, values: list) -> str:
    rendered = ", ".join(repr(v) for v in values)
    return f"{column} = {rendered}" if len(values) == 1 else f"{column} IN ({rendered})"


class TestAgainstTheReplacedInterpreter:
    @given(_r_rows, _s_rows, _shape, _a_values, _b_values, _a_values, _b_values, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_mode_and_a_rebinding(
        self, r_rows, s_rows, shape, a_values, b_values, a_next, b_next, dedup_keys
    ):
        """The template's own constants (IN lists with duplicates, values
        absent from the data), then a second binding of equal arity run
        through the pinned skeleton."""
        db = small_db(r_rows, s_rows)
        beas = BEAS(db, AccessSchema(SMALL_SCHEMA))
        sql = shape.format(
            where=f"{_in_list('r.a', a_values + a_values[:1])} AND {_in_list('r.b', b_values)}"
        )
        decision = beas.check(sql)
        assert decision.covered and isinstance(decision.plan, BoundedPlan)
        rows = assert_modes_match_reference(beas.catalog, decision.plan, dedup_keys=dedup_keys)
        expected = reference_execute(db, sql)
        if "ORDER BY" in sql and "LIMIT" not in sql:
            assert rows == expected
        elif "LIMIT" not in sql:
            if decision.bag_exact:
                assert sorted(rows, key=repr) == sorted(expected, key=repr)
            else:
                assert set(rows) == set(expected)

        # an equal-arity binding: rebound, or re-checked when the arity moved
        session = Session(beas=beas)
        prepared = session.query(sql)
        slots = prepared.slots
        overrides = {}
        if "r.a" in slots and len(set(a_next)) == len(set(a_values)):
            overrides["r.a"] = a_next
        if "r.b" in slots and len(set(b_next)) == len(set(b_values)):
            overrides["r.b"] = b_next
        if not overrides:
            return
        template = build_rebind_template(
            decision, resolve_overrides(overrides, slots, None, db.schema)
        )
        assert template is not None
        rebound = template.rebind(resolve_overrides(overrides, slots, None, db.schema))
        assert rebound is not None
        bound_sql = shape.format(
            where=f"{_in_list('r.a', overrides.get('r.a', a_values))} AND "
            f"{_in_list('r.b', overrides.get('r.b', b_values))}"
        )
        fresh = BEAS(db, AccessSchema(SMALL_SCHEMA)).check(bound_sql)
        assert rebound.plan == fresh.plan
        assert rebound.plan._shape is decision.plan._shape
        rows = assert_modes_match_reference(beas.catalog, rebound.plan, dedup_keys=dedup_keys)
        if "LIMIT" not in bound_sql and fresh.bag_exact:
            assert sorted(rows, key=repr) == sorted(reference_execute(db, bound_sql), key=repr)

    @given(_r_rows, st.sampled_from([1, "1", 1.0, True]), st.sampled_from(["x", 0]))
    @settings(max_examples=40, deadline=None)
    def test_type_mixed_values(self, r_rows, a_value, b_value):
        """A constant of another type class than the column's: the keys
        are presented as given and match what Python equality matches."""
        db = small_db(r_rows, [])
        beas = BEAS(db, AccessSchema(SMALL_SCHEMA))
        sql = f"SELECT r.c, r.d FROM r WHERE r.a = {a_value!r} AND r.b = {b_value!r}"
        decision = beas.check(sql)
        assert decision.covered
        assert_modes_match_reference(beas.catalog, decision.plan)


# --------------------------------------------------------------------------- #
# constant key parts are grouped by equality class, not by tuple identity
# --------------------------------------------------------------------------- #
class TestConstantGroups:
    ROWS = [(a, b, 10 * a + k, 0.5) for a in (1, 2) for k, b in enumerate(("x", "y"))]

    def _plan_and_keys(self, monkeypatch, sql, surgery=None):
        """The decided plan (after ``surgery`` on its first fetch) and the
        keys the live row executor, the columnar executor, the
        approximator and the reference present to the index."""
        db = Database(
            DatabaseSchema(
                [TableSchema("r", [("a", DataType.INT), ("b", DataType.INT),
                                   ("c", DataType.INT)])]
            )
        )
        for a in (1, 2):
            for b in (1, 2):
                db.insert("r", (a, b, 10 * a + b))
        beas = BEAS(db, AccessSchema([AccessConstraint("r", ["a", "b"], ["c"], 4, name="r_ab")]))
        plan = beas.check(sql).plan
        if surgery is not None:
            surgery(plan.ops[0])
        index = beas.catalog.index_for(plan.ops[0].constraint)
        presented: list[tuple] = []
        fetch = index.fetch

        def spy(key):
            presented.append(tuple(key))
            return fetch(key)

        monkeypatch.setattr(index, "fetch", spy)
        keys = {}
        for name, run in (
            ("row", lambda: BoundedPlanExecutor(beas.catalog, executor="row").execute(plan)),
            ("columnar", lambda: BoundedPlanExecutor(beas.catalog, executor="columnar").execute(plan)),
            ("approximate", lambda: BoundedApproximator(beas.catalog).execute(plan, 100)),
            ("reference", lambda: ReferenceInterpreter(beas.catalog).execute(plan)),
        ):
            presented.clear()
            result = run()
            rows = result.rows if name != "reference" else result[1]
            keys[name] = (sorted(presented), sorted(rows))
        return plan, keys

    def test_two_classes_sharing_one_tuple_object(self, monkeypatch):
        """Two different classes handed one tuple object (an interned or
        cached canonical tuple) are still two factors of the key product.
        The parent's ``id(values)`` grouping forced them equal and dropped
        (1, 2) and (2, 1): the reference still does."""
        shared = (1, 2)

        def share(op: FetchOp):
            op.key_parts[:] = [
                KeyPart(part.attribute, "const", None, shared) for part in op.key_parts
            ]
            assert op.key_parts[0].values is op.key_parts[1].values

        _, keys = self._plan_and_keys(
            monkeypatch, "SELECT r.c FROM r WHERE r.a IN (1, 2) AND r.b IN (1, 2)", share
        )
        product = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for mode in ("row", "columnar", "approximate"):
            assert keys[mode] == (product, [(11,), (12,), (21,), (22,)]), mode
        assert keys["reference"] == ([(1, 1), (2, 2)], [(11,), (22,)])

    def test_in_lists_of_equal_content(self, monkeypatch):
        plan, keys = self._plan_and_keys(
            monkeypatch, "SELECT r.c FROM r WHERE r.a IN (1, 2) AND r.b IN (2, 1)"
        )
        a_part, b_part = plan.ops[0].key_parts
        assert a_part.values == b_part.values == (1, 2)
        for mode in ("row", "columnar", "approximate", "reference"):
            assert keys[mode][0] == [(1, 1), (1, 2), (2, 1), (2, 2)], mode

    def test_one_class_two_parts_take_one_value(self, monkeypatch):
        """The other direction: two parts of ONE class enumerate together."""
        _, keys = self._plan_and_keys(
            monkeypatch, "SELECT r.c FROM r WHERE r.a IN (1, 2) AND r.a = r.b"
        )
        for mode in ("row", "columnar", "approximate", "reference"):
            assert keys[mode] == ([(1, 1), (2, 2)], [(11,), (22,)]), mode


# --------------------------------------------------------------------------- #
# what a request still pays: counts
# --------------------------------------------------------------------------- #
class _Counter:
    def __init__(self, monkeypatch):
        self.counts: dict[str, int] = {}
        self._monkeypatch = monkeypatch

    def wrap(self, owner, name: str, label: Optional[str] = None):
        label = label or name
        original = getattr(owner, name)
        self.counts[label] = 0

        def counted(*args, **kwargs):
            self.counts[label] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, counted)

    def reset(self):
        for label in self.counts:
            self.counts[label] = 0


def _count_set_up(monkeypatch) -> _Counter:
    """Count every construction the skeleton exists to amortise. Names are
    patched where they are looked up (``from x import y`` copies)."""
    counter = _Counter(monkeypatch)
    counter.wrap(skeleton_module, "_KeyPlan")
    counter.wrap(skeleton_module, "_SelectPlan")
    counter.wrap(skeleton_module, "attach_tail")
    for module in (skeleton_module, physical, columnar, expressions):
        for name in ("compile_expression", "compile_predicate", "compile_columnar_predicate",
                     "compile_columnar_values"):
            if hasattr(module, name):
                counter.wrap(module, name, f"{module.__name__.rsplit('.', 1)[1]}.{name}")
    return counter


@pytest.mark.parametrize("executor", ["row", "columnar"])
def test_cold_bindings_set_nothing_up_after_the_first_request(tlc, monkeypatch, executor):
    """After a template's first request, 200 further cold bindings
    construct no key plan, attach no tail, compile no expression or
    predicate and run no BE Checker: a request pays for its constants,
    its fetches and running its tail."""
    dataset, _ = tlc
    # in this process: a pool worker's set-up could not be counted here
    beas = BEAS(dataset.database, tlc_access_schema(), parallelism=1)
    session = Session(beas=beas)
    counter = _count_set_up(monkeypatch)
    for query in tlc_queries(dataset.params)[:10]:
        prepared = session.query(query.sql)
        bindings = _bindings(_slot_pools(dataset.database, prepared), 201, 11)
        first = prepared.bind(bindings[0]).run(
            executor=executor, routing="static", use_result_cache=False
        )
        assert first.decision.provenance == "fresh"
        assert counter.counts["_KeyPlan"] >= 1 and counter.counts["attach_tail"] == 1
        counter.reset()
        checks = beas.checker_runs
        for binding in bindings[1:]:
            result = prepared.bind(binding).run(
                executor=executor, routing="static", use_result_cache=False
            )
            assert result.decision.provenance in ("rebound", "cached"), query.name
        assert beas.checker_runs == checks, query.name
        assert counter.counts == dict.fromkeys(counter.counts, 0), query.name


# --------------------------------------------------------------------------- #
# the front end's share: one sort, one locked section, the same keys
# --------------------------------------------------------------------------- #
class _CountingLock:
    def __init__(self):
        self.entered = 0
        self._lock = threading.Lock()

    def __enter__(self):
        self.entered += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


@pytest.mark.parametrize(
    "params",
    [
        {"call.pnum": "101"},
        {"date": "2016-06-02", "pnum": "100"},
        {"call.pnum": ["103", "101", "103"], "call.date": ("2016-06-03",)},
        {"call.pnum": [7, "7", 7.0], "call.date": {"2016-06-01", "2016-06-02"}},
    ],
)
def test_binding_keys_are_byte_identical_to_the_three_sort_form(params):
    """Result- and decision-cache keys must not move: the fingerprint and
    the arity signature equal what the parent derived with a sort each."""
    with _example_session() as session:
        prepared = session.query(
            "SELECT recnum FROM call WHERE pnum IN ('100', '101') AND date = '2016-06-01'"
        )._prepared
        prepared._bindings_lock = lock = _CountingLock()
        bound = prepared.binding(params)
        assert lock.entered == 1  # one locked section per cold binding
        resolved = resolve_overrides(params, prepared.slots, None, None)
        assert dict(bound.overrides) == resolved
        preimage = prepared.fingerprint + "|" + repr(tuple(sorted(resolved.items())))
        assert bound.fingerprint == hashlib.sha256(preimage.encode("utf-8")).hexdigest()
        assert bound.signature == tuple(
            (name, len(values), tuple(type(v).__name__ for v in values))
            for name, values in sorted(resolved.items())
        )
        assert bound.signature == rebind_signature(resolved)
        assert prepared.binding(params) is bound and lock.entered == 2


# --------------------------------------------------------------------------- #
# lifetime: the skeleton lives and dies with its generation-keyed decision
# --------------------------------------------------------------------------- #
EXAMPLE_SQL = "SELECT recnum, region FROM call WHERE pnum = '100' AND date = '2016-06-01'"


def _example_session():
    """In-process execution: the skeleton under test is this process's."""
    return Session(
        beas=BEAS(example1_database(), example1_access_schema(), parallelism=1)
    )


def test_generation_bump_drops_the_skeleton_with_its_decision():
    with _example_session() as session:
        query = session.query(EXAMPLE_SQL)
        first = query.bind({"call.pnum": "101"}).run(use_result_cache=False)
        plan = first.decision.coverage.plan
        skeleton = weakref.ref(skeleton_of(plan))
        again = query.bind({"call.pnum": "102"}).run(use_result_cache=False)
        assert again.decision.provenance == "rebound"
        assert skeleton_of(again.decision.coverage.plan) is skeleton()
        generation = again.decision.generation

        constraint = next(
            c for c in session.beas.catalog.schema if c in plan.constraints_used
        )
        session.unregister(constraint.name)
        session.register(constraint)
        del first, again, plan
        after = query.bind({"call.pnum": "103"}).run(use_result_cache=False)
        assert after.decision.generation > generation
        assert after.decision.provenance == "fresh"  # nothing pinned survived
        gc.collect()
        assert skeleton() is None
        assert skeleton_of(after.decision.coverage.plan) is not None


def test_a_plan_pickles_without_its_skeleton_and_still_executes():
    with _example_session() as session:
        result = session.run(EXAMPLE_SQL, use_result_cache=False)
        plan = result.decision.coverage.plan
        assert plan._shape.skeleton is not None
        wire = pickle.dumps(plan)  # what the pool pipe and a fleet frame carry
        assert b"skeleton" not in wire.lower() and b"_shape" not in wire
        clone = pickle.loads(wire)
        assert clone == plan and repr(clone) == repr(plan)
        assert clone._shape is not plan._shape and clone._shape.skeleton is None
        executor = BoundedPlanExecutor(session.beas.catalog)
        answer = executor.execute(clone)
        assert answer.rows == result.rows and answer.columns == result.columns
        assert clone._shape.skeleton is not None
        # a skeleton is no part of a plan's value either
        assert "skeleton" not in repr(plan).lower()


# --------------------------------------------------------------------------- #
# eight threads, one pinned skeleton
# --------------------------------------------------------------------------- #
def test_eight_threads_over_one_skeleton(tlc):
    dataset, beas = tlc
    query = tlc_queries(dataset.params)[0]  # Q1: three fetches, filters, a join
    session = Session(beas=BEAS(dataset.database, tlc_access_schema(), parallelism=1))
    prepared = session.query(query.sql)
    bindings = _bindings(_slot_pools(dataset.database, prepared), 24, 5)
    reference = ReferenceInterpreter(beas.catalog)
    expected = []
    for binding in bindings:
        plan = BEAS(dataset.database, tlc_access_schema()).check(
            prepared._prepared.binding(binding).statement
        ).plan
        _, rows, metrics, _ = reference.execute(plan)
        expected.append((rows, profile_of(metrics)))
    prepared.bind(bindings[0]).run(use_result_cache=False)  # pins the skeleton

    failures: list[str] = []
    shapes = set()
    deadline = time.monotonic() + 1.5
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        barrier.wait(timeout=10)
        turn = offset
        while time.monotonic() < deadline and not failures:
            index = turn % len(bindings)
            executor = "columnar" if turn % 3 == 0 else "row"
            result = prepared.bind(bindings[index]).run(
                use_result_cache=False, executor=executor, routing="static"
            )
            shapes.add(id(result.decision.coverage.plan._shape))
            if (result.rows, profile_of(result.metrics)) != expected[index]:
                failures.append(f"binding {index} ({executor})")
            turn += 7

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert len(shapes) == 1  # every rebinding ran off the one pinned slot
    session.close()
