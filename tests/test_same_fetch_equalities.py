"""A bounded plan checks what its fetches do not guarantee, and only that.

``fetch(X ∈ S, R, Y)`` returns only tuples whose X-value is in S, so the
BE Plan Generator emits no selection on a constant-keyed X column. What
no key part enforces it must check itself: an equality between two
columns one fetch brings in (``call.recnum = call.region``), and a
constant on a class member no key part carries. This suite runs queries
with equalities between columns of one occurrence, over one and two
occurrences, with constants and IN lists, through a Session under the
row and the columnar executor, each query both fresh and rebound (a
prepared ``Query`` bound to new values of the same arity), and holds
every answer to ``tests.reference_evaluator``:

* the rows equal the reference's (every query is ``SELECT DISTINCT``, so
  as sets, in whatever order);
* a bounded answer's ``tuples_fetched`` stays within its deduced
  ``access_bound``.

Every column of the world shares one small value pool, so equalities
between any two columns hold on some rows and fail on others. The three
probes over the TLC data are explicit cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionOptions,
    Session,
    TableSchema,
)
from repro.beas.result import ExecutionMode
from repro.config import env_fuzz_seeds
from repro.workloads.tlc import generate_tlc, tlc_access_schema

from tests.reference_evaluator import reference_execute

EXECUTORS = ("row", "columnar")
POOL = ("a", "b", "c")

CALL = ("pnum", "recnum", "date", "region")
BUSINESS = ("pnum", "type", "region")


def world_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            TableSchema(
                "call",
                [("call_id", DataType.INT)] + [(c, DataType.STRING) for c in CALL],
                keys=[("call_id",)],
            ),
            TableSchema("business", [(c, DataType.STRING) for c in BUSINESS]),
        ],
        name="same_fetch",
    )


def world_access() -> AccessSchema:
    # N exceeds every table the strategies build, so D always conforms
    return AccessSchema(
        [
            AccessConstraint("call", ["pnum", "date"], ["recnum", "region"], 64, name="psi1"),
            AccessConstraint("call", ["recnum", "date"], ["pnum", "region"], 64, name="psi5"),
            AccessConstraint("business", ["type", "region"], ["pnum"], 64, name="psi3"),
        ]
    )


def world_database(calls: list[tuple], businesses: list[tuple]) -> Database:
    database = Database(world_schema())
    database.table("call").insert_rows(
        [(i, *row) for i, row in enumerate(calls)]
    )
    database.table("business").insert_rows(businesses)
    return database


cells = st.sampled_from(POOL + (None,))
call_rows = st.lists(st.tuples(cells, cells, cells, cells), max_size=14)
business_rows = st.lists(st.tuples(cells, cells, cells), max_size=8)


# --------------------------------------------------------------------------- #
# queries: constants (one value or an IN list of two) per column, same-
# occurrence equalities, and for each constant a second binding of the
# same arity
# --------------------------------------------------------------------------- #
class Shape:
    """One query shape: its occurrences, joins and same-occurrence
    equalities, and the columns holding a constant with the values of
    two bindings (a scalar or a two-value list each)."""

    def __init__(self, tables: str, joins: list[str], equalities: list[str]):
        self.tables = tables
        self.joins = joins
        self.equalities = equalities
        self.constants: dict[str, tuple] = {}  # column -> (first, second)
        self.output: list[str] = []

    def __repr__(self) -> str:
        return f"Shape({self.sql(0)!r}, then {self.binding(1)!r})"

    def sql(self, binding: int) -> str:
        where = list(self.joins) + list(self.equalities)
        for column, values in self.constants.items():
            value = values[binding]
            if isinstance(value, list):
                where.append(f"{column} IN ({', '.join(map(repr, value))})")
            else:
                where.append(f"{column} = {value!r}")
        return (
            f"SELECT DISTINCT {', '.join(self.output)} FROM {self.tables} "
            f"WHERE {' AND '.join(where)}"
        )

    def binding(self, binding: int) -> dict[str, object]:
        """The ``bind()`` overrides of one binding."""
        return {column: values[binding] for column, values in self.constants.items()}

    def rebinds(self) -> bool:
        """Whether every equality class keeps its merged constant arity
        (its members' values intersected) from the first binding to the
        second: then the second binding rebinds the first's plan."""
        parent: dict[str, str] = {}

        def find(column: str) -> str:
            while parent.get(column, column) != column:
                column = parent[column]
            return column

        for atom in self.joins + self.equalities:
            left, right = atom.split(" = ")
            parent[find(right)] = find(left)
        arities = []
        for binding in (0, 1):
            merged: dict[str, set] = {}
            for column, values in self.constants.items():
                value = values[binding]
                found = set(value) if isinstance(value, list) else {value}
                root = find(column)
                merged[root] = merged[root] & found if root in merged else found
            arities.append({root: len(values) for root, values in merged.items()})
        return arities[0] == arities[1]


def _constant():
    scalar = st.sampled_from(POOL)
    listed = st.lists(st.sampled_from(POOL), min_size=2, max_size=2, unique=True)
    return st.one_of(st.tuples(scalar, scalar), st.tuples(listed, listed))


def _pairs(columns: list[str]):
    pairs = [(a, b) for i, a in enumerate(columns) for b in columns[i + 1 :]]
    return st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True)


@st.composite
def one_occurrence(draw) -> Shape:
    """``FROM call``: date and one of pnum / recnum hold constants (a
    psi1 or psi5 key), the other columns may; one or two equalities
    between call's columns."""
    columns = [f"call.{c}" for c in CALL]
    shape = Shape(
        "call", [], [f"{a} = {b}" for a, b in draw(_pairs(columns))]
    )
    key = draw(st.sampled_from(["call.pnum", "call.recnum"]))
    for column in columns:
        if column in ("call.date", key) or draw(st.booleans()):
            shape.constants[column] = draw(_constant())
    shape.output = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    return shape


@st.composite
def two_occurrences(draw) -> Shape:
    """``FROM business b, call c`` joined on pnum: b's psi3 key and c's
    date hold constants; one or two equalities inside b, inside c or
    inside both, and maybe b.region = c.region."""
    b_columns = [f"b.{c}" for c in BUSINESS]
    c_columns = [f"c.{c}" for c in CALL]
    pairs = draw(_pairs(b_columns)) if draw(st.booleans()) else []
    pairs += draw(_pairs(c_columns)) if not pairs or draw(st.booleans()) else []
    joins = ["b.pnum = c.pnum"]
    if draw(st.booleans()):
        joins.append("b.region = c.region")
    shape = Shape(
        "business b, call c", joins, [f"{a} = {b}" for a, b in pairs]
    )
    for column in b_columns + c_columns:
        if column in ("b.type", "b.region", "c.date") or (
            column not in ("b.pnum", "c.pnum") and draw(st.booleans())
        ):
            shape.constants[column] = draw(_constant())
    shape.output = draw(
        st.lists(st.sampled_from(b_columns + c_columns), min_size=1, max_size=3, unique=True)
    )
    return shape


# --------------------------------------------------------------------------- #
# the check
# --------------------------------------------------------------------------- #
def assert_answer(database: Database, result, sql: str) -> None:
    """The reference's rows, and a bounded answer's fetches within its
    deduced bound."""
    reference = reference_execute(database, sql)
    assert len(set(result.rows)) == len(result.rows), (sql, result.rows)
    assert set(result.rows) == set(reference), (sql, result.rows, reference)
    if result.mode is ExecutionMode.BOUNDED:
        assert result.metrics.tuples_fetched <= result.decision.access_bound, sql


def run_fresh_and_rebound(
    database: Database, access: AccessSchema, executor: str, shape: Shape
) -> None:
    """Run the shape's first binding fresh (it pins the shape's plan),
    and its second both fresh (on an engine that never saw the shape)
    and rebound (the prepared handle bound to the second's values: the
    pinned plan rebound, unless a class's merged arity moved)."""
    options = ExecutionOptions(executor=executor, use_result_cache=False)
    first, second = shape.sql(0), shape.sql(1)
    with Session(database, access, options=options) as serving, Session(
        database, access, options=options
    ) as other:
        handle = serving.query(first)
        fresh = handle.bind(shape.binding(0)).run()
        assert fresh.decision.provenance == "fresh"
        assert fresh.mode is ExecutionMode.BOUNDED, first
        assert_answer(database, fresh, first)
        fresh_second = other.run(second)
        assert fresh_second.decision.provenance == "fresh"
        assert_answer(database, fresh_second, second)
        rebound = handle.bind(shape.binding(1)).run()
        assert_answer(database, rebound, second)
        expected = "rebound" if shape.rebinds() else "fresh"
        assert rebound.decision.provenance == expected, (first, second)


EXAMPLES = 10 * env_fuzz_seeds(8)


@pytest.mark.parametrize("executor", EXECUTORS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(calls=call_rows, shape=one_occurrence())
def test_one_occurrence(executor, calls, shape):
    run_fresh_and_rebound(world_database(calls, []), world_access(), executor, shape)


@pytest.mark.parametrize("executor", EXECUTORS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(calls=call_rows, businesses=business_rows, shape=two_occurrences())
def test_two_occurrences(executor, calls, businesses, shape):
    run_fresh_and_rebound(
        world_database(calls, businesses), world_access(), executor, shape
    )


# --------------------------------------------------------------------------- #
# the probes: a bounded plan that served rows the conventional engine does
# not (TLC, scale 1, seed 42)
# --------------------------------------------------------------------------- #
PROBES = {
    # two Y columns of one psi1 fetch equated
    "y-equals-y": (
        "select distinct call.recnum, call.region from call "
        "where call.pnum = {0} and call.date = '2016-06-12' "
        "and call.recnum = call.region",
        ("'P0000054'", "'P0000001'"),
    ),
    # a constant-keyed X column of psi5 equated to one of its Y columns
    "x-equals-y": (
        "select distinct call.pnum, call.region from call "
        "where call.recnum = {0} and call.date = '2016-06-12' "
        "and call.recnum = call.pnum",
        ("'E0000112'", "'E0000001'"),
    ),
    "x-in-list-equals-y": (
        "select distinct call.pnum, call.region from call "
        "where call.recnum in ({0}) and call.date = '2016-06-12' "
        "and call.recnum = call.pnum",
        ("'E0000112', 'E0000001'", "'E0000002', 'E0000003'"),
    ),
}


@pytest.fixture(scope="module")
def tlc():
    return generate_tlc(1, 42)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_returns_the_conventional_rows(tlc, probe, executor):
    """BOUNDED, fresh and rebound, with the conventional engine's rows
    (none: a recnum is never a region nor a pnum)."""
    template, values = PROBES[probe]
    options = ExecutionOptions(executor=executor, use_result_cache=False)
    with Session(tlc.database, tlc_access_schema(), options=options) as session:
        handle = session.query(template.format(values[0]))
        for rendered, provenance in zip(values, ("fresh", "rebound")):
            sql = template.format(rendered)
            result = handle.bind(_probe_binding(rendered)).run()
            assert result.mode is ExecutionMode.BOUNDED
            assert result.decision.provenance == provenance
            expected = session.beas.host_engine().execute(sql).rows
            assert sorted(result.rows) == sorted(expected) == [], sql


def _probe_binding(rendered: str) -> dict[str, object]:
    """The probe's first slot (pnum or recnum) as bind() overrides."""
    values = [value.strip(" '") for value in rendered.split(",")]
    slot = "pnum" if values[0].startswith("P") else "recnum"
    return {slot: values if len(values) > 1 else values[0]}
