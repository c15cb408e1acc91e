"""One grouping of a relation by X: conformance, profiling and the AS
Catalog's statistics all read the access index.

* ``check_constraint`` and ``profile_candidate`` equal a plain regrouping
  written here (every NaN one value, NULL a value like any other) over
  small random tables holding NULL, NaN as distinct float objects,
  duplicate rows and an empty X. A table whose NaN admission made the one
  canonical object reads the same without canonicalising.
* After insert, delete and ADJUST batches and bound changes through a
  Session, ``catalog.statistics()`` and ``statistics_table()`` equal the
  live indices' counters and those of an index rebuilt from the data.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BEAS
from repro.access.catalog import IndexStatistics
from repro.access.conformance import Violation, check_constraint
from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.catalog.schema import TableSchema
from repro.catalog.types import DataType
from repro.discovery import profile_candidate
from repro.discovery.candidates import CandidateConstraint
from repro.errors import ConformanceError, MaintenanceError
from repro.storage.codec import canonical_key
from repro.storage.database import Database
from repro.storage.table import Table

from tests.conftest import example1_access_schema, example1_database

COLUMNS = (
    ("a", DataType.INT),
    ("b", DataType.FLOAT),
    ("c", DataType.STRING),
    ("d", DataType.FLOAT),
)
SCHEMA = TableSchema("r", list(COLUMNS))

#: a fresh NaN object per draw: distinct NaNs never share identity
nans = st.builds(float, st.just("nan"))
cells = {
    DataType.INT: st.sampled_from([0, 1, None]),
    DataType.FLOAT: st.one_of(st.sampled_from([0.5, None]), nans),
    DataType.STRING: st.sampled_from(["p", "q", None]),
}
rows = st.lists(st.tuples(*(cells[dtype] for _, dtype in COLUMNS)), max_size=14)


@st.composite
def shapes(draw) -> tuple[list[str], list[str]]:
    """Disjoint X (possibly empty) and Y (non-empty) over the columns."""
    roles = draw(
        st.lists(st.sampled_from("xy-"), min_size=len(COLUMNS), max_size=len(COLUMNS))
        .filter(lambda roles: "y" in roles)
    )
    names = [name for name, _ in COLUMNS]
    return (
        [n for n, role in zip(names, roles) if role == "x"],
        [n for n, role in zip(names, roles) if role == "y"],
    )


def regroup(table: Table, x: list[str], y: list[str], *, canonical: bool = True):
    """The grouping of ``table`` by X into sets of distinct Y-values, keys
    in first-seen order; ``canonical`` makes every NaN one value."""
    project = canonical_key if canonical else tuple
    x_positions, y_positions = table.schema.positions(x), table.schema.positions(y)
    groups: dict[tuple, set[tuple]] = {}
    for row in table.rows:
        key = project(row[i] for i in x_positions)
        groups.setdefault(key, set()).add(project(row[i] for i in y_positions))
    return groups


def make_table(data: list[tuple], admitted: bool) -> Table:
    """Through admission (one canonical NaN object), or as given (each
    NaN its own object)."""
    return Table(SCHEMA, data) if admitted else Table.from_trusted_rows(SCHEMA, data)


@settings(max_examples=200, deadline=None)
@given(data=rows, shape=shapes(), n=st.integers(0, 3), admitted=st.booleans())
def test_conformance_reads_the_grouping(data, shape, n, admitted):
    x, y = shape
    table = make_table(data, admitted)
    constraint = AccessConstraint("r", x, y, n, name="r_xy")
    report = check_constraint(table, constraint)
    for canonical in (True, False) if admitted else (True,):
        groups = regroup(table, constraint.x, constraint.y, canonical=canonical)
        assert report.checked_constraints == 1
        assert report.max_group_size == max(map(len, groups.values()), default=0)
        assert report.violations == [
            Violation(constraint, key, len(values))
            for key, values in groups.items()
            if len(values) > n
        ]


@settings(max_examples=200, deadline=None)
@given(
    data=rows,
    shape=shapes(),
    slack=st.sampled_from([1.0, 1.5, 2.0]),
    max_n=st.sampled_from([None, 1, 2]),
    admitted=st.booleans(),
)
def test_profiling_reads_the_grouping(data, shape, slack, max_n, admitted):
    x, y = shape
    database = Database(name="grouping")
    table = database.add_table(make_table(data, admitted))
    candidate = CandidateConstraint("r", tuple(x), tuple(y))
    profiled = profile_candidate(database, candidate, slack=slack, max_n=max_n)
    for canonical in (True, False) if admitted else (True,):
        groups = regroup(table, x, y, canonical=canonical)
        observed = max(map(len, groups.values()), default=0)
        declared = max(math.ceil(observed * slack), observed, 1)
        if max_n is not None and declared > max_n:
            assert profiled is None
            continue
        entries = sum(map(len, groups.values()))
        assert profiled is not None
        assert (
            profiled.n,
            profiled.observed_max,
            profiled.key_count,
            profiled.entry_count,
            profiled.storage_cells,
        ) == (
            declared,
            observed,
            len(groups),
            entries,
            len(groups) * len(x) + entries * len(y),
        )


def test_profiling_takes_no_constraint_name():
    """The index a profile builds is named: a nameless constraint would
    draw the next global ``psi<n>`` and rename every later one."""
    database = example1_database()
    candidate = CandidateConstraint("package", ("pnum", "year"), ("pid",))
    before = int(AccessConstraint("package", ["pnum"], ["pid"], 1).name[3:])
    profile_candidate(database, candidate)
    after = int(AccessConstraint("package", ["pnum"], ["pid"], 1).name[3:])
    assert after == before + 1


# --------------------------------------------------------------------------- #
# the catalog's statistics after writes through a Session
# --------------------------------------------------------------------------- #
def counters(index: AccessIndex) -> tuple[int, int, int, int]:
    return (
        index.key_count,
        index.entry_count,
        index.max_bucket_size,
        index.storage_cells(),
    )


def assert_statistics_are_live(beas: BEAS) -> None:
    catalog = beas.catalog
    live = catalog.index_map()
    stats = catalog.statistics()
    assert [s.constraint_name for s in stats] == list(live)
    for row in stats:
        index = live[row.constraint_name]
        rebuilt = AccessIndex(index.constraint).build(
            beas.database.table(index.constraint.relation), validate=False
        )
        assert row == IndexStatistics(
            row.constraint_name, index.constraint.relation, *counters(index)
        )
        assert counters(index) == counters(rebuilt)
    for name, _, _, _, n, keys, entries, largest, cells in catalog.statistics_table().rows:
        assert n == catalog.schema.get(name).n
        assert (keys, entries, largest, cells) == counters(live[name])


packages = st.tuples(
    st.sampled_from(["100", "101", "107"]),
    st.sampled_from(["c0", "c1", "c2", "c3", "c4"]),
    st.sampled_from([2015, 2016]),
)
calls = st.tuples(
    st.sampled_from(["100", "104"]),
    st.sampled_from(["555", "556", "560"]),
    st.sampled_from(["north", "south"]),
)
#: (op, *args); a boolean argument of an insert is ``adjust_bounds``, the
#: integer of ``set_bounds`` the new N's distance from the largest bucket
operations = st.one_of(
    st.tuples(
        st.just("insert_package"), st.lists(packages, min_size=1, max_size=14), st.booleans()
    ),
    st.tuples(st.just("insert_call"), st.lists(calls, min_size=1, max_size=4), st.booleans()),
    st.tuples(
        st.just("delete"),
        st.sampled_from(["package", "call"]),
        st.lists(st.integers(0, 50), max_size=4),
    ),
    st.tuples(st.just("set_bounds"), st.sampled_from(["psi1", "psi2", "psi3"]), st.integers(-1, 3)),
)


@settings(max_examples=25, deadline=None)
@given(script=st.lists(operations, min_size=1, max_size=6))
def test_statistics_follow_every_write(script):
    with BEAS(example1_database(), example1_access_schema()) as beas:
        session = beas.session()
        fresh_id = iter(range(1000, 10**6))
        catalog = beas.catalog
        # every N down to its largest bucket: a growing bucket then adjusts
        catalog.set_bounds(
            {c.name: catalog.index_for(c).max_bucket_size for c in list(catalog.schema)}
        )
        assert_statistics_are_live(beas)
        for op, *args in script:
            try:
                if op == "insert_package":
                    batch, adjust = args
                    session.insert(
                        "package",
                        [(next(fresh_id), pnum, pid, f"{year}-01-01", f"{year}-12-31", year)
                         for pnum, pid, year in batch],
                        adjust_bounds=adjust,
                    )
                elif op == "insert_call":
                    batch, adjust = args
                    session.insert(
                        "call",
                        [(next(fresh_id), pnum, recnum, "2016-06-01", region)
                         for pnum, recnum, region in batch],
                        adjust_bounds=adjust,
                    )
                elif op == "delete":
                    name, positions = args
                    present = beas.database.table(name).rows
                    chosen = sorted({p % len(present) for p in positions}) if present else []
                    if chosen:
                        session.delete(name, [present[p] for p in chosen])
                else:
                    name, delta = args
                    index = catalog.index_for(catalog.schema.get(name))
                    catalog.set_bounds({name: max(index.max_bucket_size + delta, 0)})
            except (ConformanceError, MaintenanceError):
                pass  # a refused batch or tightening changes nothing
            assert_statistics_are_live(beas)


def test_statistics_move_with_an_insert(ex1_beas):
    """The statistics are no copy taken at build time."""
    before = {s.constraint_name: s for s in ex1_beas.catalog.statistics()}
    ex1_beas.session().insert("call", [(100, "900", "555", "2016-06-01", "north")])
    after = {s.constraint_name: s for s in ex1_beas.catalog.statistics()}
    assert after["psi1"].key_count == before["psi1"].key_count + 1
    assert after["psi2"] == before["psi2"]
