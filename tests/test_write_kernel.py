"""The batch write kernel against the per-row write path it replaced.

``ReferenceMaintenance`` below is the write path as it stood at PR 18:
``Table.insert``'s per-value ``is_compatible`` walk and ``canonical_key``
generator, ``AccessIndex._add`` / ``delete_row`` one row at a time, the
``MaintenanceManager`` row-by-constraint loop with its per-row rollback,
and ``delete_rows`` as a scan; it logs the rows it stored. It survives
only here, as the oracle (the pattern of ``ReferenceTable``,
``ReferenceExecutor`` and ``ReferenceInterpreter``). One thing differs
from the parent, on purpose: the reference type-checks the whole batch
before it applies its first row, as the kernel does — the parent applied
the rows in front of an inadmissible one and then raised, leaving half a
batch in the table, in the indices and out of the WAL.

After every step of a random sequence the live table's ``rows`` must be
*list-equal* to the reference's (and spelled alike: ``-0.0`` is not
``0.0`` here), ``version`` and every ``AccessIndex.snapshot()`` equal —
to the reference and to a from-scratch rebuild — and each call must have
returned the same ``UpdateBatch`` or raised the same error, word for
word. The second half holds what the change is for: counts.
"""

from __future__ import annotations

import pickle
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.access.index as index_module
import repro.catalog.types as types_module
import repro.storage.codec as codec_module
import repro.storage.mmapstore as mmapstore_module
import repro.storage.table as table_module
from repro import (
    AccessConstraint,
    AccessIndex,
    AccessSchema,
    ASCatalog,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionOptions,
    Session,
    TableSchema,
)
from repro.catalog.types import coerce_value, is_compatible
from repro.distributed.peer import apply_delta_records
from repro.errors import (
    AccessSchemaError,
    ConformanceError,
    MaintenanceError,
    StorageError,
    TypeMismatchError,
)
from repro.maintenance import MaintenanceManager, UpdateBatch, ViolationPolicy
from repro.storage.codec import canonical_key, decode_row, encode_row
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog
from repro.workloads.tlc import generate_tlc, tlc_access_schema

from tests.conftest import store_log

SCHEMA = TableSchema(
    "t",
    [
        ("k", DataType.STRING),
        ("v", DataType.INT),
        ("w", DataType.FLOAT),
        ("d", DataType.DATE),
        ("b", DataType.BOOL),
    ],
)
OTHER = TableSchema("u", [("id", DataType.INT), ("k", DataType.STRING)])

#: three indexes over ``t`` with bounds small enough to be hit, a FLOAT
#: part in one Y and in one X (NaN and -0.0 keys), plus one over ``u``
CONSTRAINTS = [
    AccessConstraint("t", ["k"], ["v"], 2, name="k_v"),
    AccessConstraint("t", ["d", "k"], ["w"], 2, name="dk_w"),
    AccessConstraint("t", ["w"], ["b", "k"], 3, name="w_bk"),
    AccessConstraint("u", ["k"], ["id"], 40, name="u_k"),
]


# --------------------------------------------------------------------------- #
# the oracle: the parent commit's write path, one value at a time
# --------------------------------------------------------------------------- #
class ReferenceIndex:
    def __init__(self, constraint: AccessConstraint, schema: TableSchema):
        self.constraint = constraint
        self.x = schema.positions(constraint.x)
        self.y = schema.positions(constraint.y)
        self.buckets: dict[tuple, dict[tuple, int]] = {}

    def key_of(self, row):
        return canonical_key(row[i] for i in self.x)

    def y_of(self, row):
        return canonical_key(row[i] for i in self.y)

    def insert_row(self, row, *, validate):
        key = self.key_of(row)
        bucket = self.buckets.setdefault(key, {})
        y_value = self.y_of(row)
        if y_value in bucket:
            bucket[y_value] += 1
            return
        if validate and len(bucket) >= self.constraint.n:
            raise ConformanceError(
                f"constraint {self.constraint.name} violated: X-value {key!r} "
                f"has more than N={self.constraint.n} distinct Y-values"
            )
        bucket[y_value] = 1

    def delete_row(self, row):
        key = self.key_of(row)
        bucket = self.buckets.get(key)
        y_value = self.y_of(row)
        if bucket is None or y_value not in bucket:
            raise AccessSchemaError(
                f"cannot delete: row not present in index {self.constraint.name}"
            )
        bucket[y_value] -= 1
        if bucket[y_value] == 0:
            del bucket[y_value]
        if not bucket:
            del self.buckets[key]


class ReferenceMaintenance:
    """One table, its indices and its committed batches, maintained per row."""

    def __init__(self, schema: TableSchema, constraints, policy=ViolationPolicy.REJECT):
        self.schema = schema
        self.policy = policy
        self.rows: list[tuple] = []
        self.version = 0
        self.indexes = [ReferenceIndex(c, schema) for c in constraints]
        #: per committed batch, the record the fleet's delta tail keeps
        self.logged: list[dict] = []

    def _admitted(self, row) -> tuple:
        schema = self.schema
        if len(row) != schema.arity:
            raise StorageError(
                f"row arity {len(row)} does not match table "
                f"{schema.name!r} arity {schema.arity}"
            )
        for value, column in zip(row, schema.columns):
            if not is_compatible(value, column.dtype):
                raise TypeMismatchError(
                    f"value {value!r} is not a {column.dtype.name} "
                    f"(column {schema.name}.{column.name})"
                )
        return self._named(row)

    def _named(self, row) -> tuple:
        """A DATE is stored, and named by a delete, as the codec decodes
        it (``2016-6-1`` is ``2016-06-01``): one spelling in table,
        indices, WAL and delta. A cell that is no DATE stays."""
        cells = list(row)
        for i, dtype in enumerate(self.schema.dtypes[: len(cells)]):
            if dtype is DataType.DATE and isinstance(cells[i], str):
                try:
                    cells[i] = coerce_value(cells[i], dtype)
                except TypeMismatchError:
                    pass
        return canonical_key(cells)

    def insert(self, rows) -> UpdateBatch:
        # the one departure from the parent: every row is admitted first
        admitted = [self._admitted(row) for row in rows]
        validate = self.policy is ViolationPolicy.REJECT
        batch = UpdateBatch(table=self.schema.name)
        applied: list[tuple] = []
        applied_index_rows = [0] * len(self.indexes)
        try:
            for stored in admitted:
                self.rows.append(stored)
                self.version += 1
                applied.append(stored)
                for number, index in enumerate(self.indexes):
                    index.insert_row(stored, validate=validate)
                    applied_index_rows[number] += 1
                batch.inserted += 1
        except ConformanceError as error:
            del self.rows[len(self.rows) - len(applied):]
            for number, index in enumerate(self.indexes):
                for row in applied[: applied_index_rows[number]]:
                    index.delete_row(row)
            raise MaintenanceError(f"insert batch rejected: {error}") from error
        if self.policy is ViolationPolicy.ADJUST:
            # a widened constraint keeps its place in the schema
            for index in self.indexes:
                actual = max(map(len, index.buckets.values()), default=0)
                if actual > index.constraint.n:
                    c = index.constraint
                    index.constraint = AccessConstraint(
                        c.relation, c.x, c.y, actual, name=c.name
                    )
                    batch.adjusted_constraints.append(c.name)
        batch.table_version = self.version
        if admitted:
            self._log("insert", admitted)
        return batch

    def delete(self, rows) -> UpdateBatch:
        rows = [self._named(row) for row in rows]
        wanted = Counter(rows)
        held = Counter(self.rows)
        if any(held[row] < count for row, count in wanted.items()):
            raise MaintenanceError(
                "delete batch rejected: some rows are not present in "
                f"{self.schema.name!r}"
            )
        kept, removed = [], []
        for row in self.rows:
            if wanted.get(row, 0) > 0:
                wanted[row] -= 1
                removed.append(row)
            else:
                kept.append(row)
        self.rows = kept
        if removed:
            self.version += 1
        for row in removed:
            for index in self.indexes:
                index.delete_row(row)
        if removed:
            # the stored spelling of each row, in the batch's order
            stored = {row: row for row in removed}
            self._log("delete", [stored[row] for row in rows])
        return UpdateBatch(
            table=self.schema.name, deleted=len(removed), table_version=self.version
        )

    def _log(self, op: str, rows: list[tuple]) -> None:
        self.logged.append(
            {"op": op, "table": self.schema.name, "rows": rows, "version": self.version}
        )


# --------------------------------------------------------------------------- #
# random batches: every spelling the admission walk has an opinion on
# --------------------------------------------------------------------------- #
class Text(str):
    """A ``str`` subclass: ``isinstance`` admitted it, so the kernel must."""


class Count(int):
    """An ``int`` subclass (and not ``bool``): admitted likewise."""


keys = st.sampled_from(["a", "b", "", '"x"', None, Text("a"), 7])
ints = st.sampled_from([0, 1, None, Count(1), True, 1.0])
#: an ``int`` is a valid FLOAT to ``is_compatible`` and is stored as
#: spelled — unless no float can hold it (``10**400`` would decode as
#: ``inf``): that one is refused
floats = st.sampled_from(
    [0.0, -0.0, 1.5, "nan", float("inf"), 2, None, "1.5", 10**400]
)
#: ``2016-6-1`` and `` 2016-06-01 `` are valid DATEs to ``is_compatible``
#: and are stored normalised, as the codec decodes them
DATES = [
    "2016-06-01", "2016-06-02", None, "2016-13-01", "june",
    "2016-6-1", " 2016-06-01 ",
]
bools = st.sampled_from([True, False, None, 1])


def _row(cells):
    k, v, w, d, b, shape = cells
    row = (k, v, float("nan") if w == "nan" else w, d, b)  # a fresh NaN per draw
    if shape == "list":
        return list(row)
    if shape == "short":
        return row[:-1]
    if shape == "long":
        return row + (None,)
    return row


#: mostly well-typed rows over small domains (duplicates, bound violations
#: and repeated deletes are common), some inadmissible ones
tidy = st.tuples(
    st.sampled_from(["a", "b", None]),
    st.sampled_from([0, 1, 2, None]),
    st.sampled_from([0.0, -0.0, 1.5, "nan", 2, None]),
    st.sampled_from(["2016-06-01", "2016-06-02", None]),
    st.sampled_from([True, False, None]),
    st.just("tuple"),
).map(_row)


wild = st.tuples(
    keys, ints, floats, st.sampled_from(DATES), bools,
    st.sampled_from(["tuple", "tuple", "list", "short", "long"]),
).map(_row)
clean = st.lists(tidy, max_size=6)
# one wild row somewhere in a batch: most such batches are refused
# whole, and the rows in front of the wild one must leave no trace
spoiled = st.tuples(clean, wild, clean).map(lambda b: b[0] + [b[1]] + b[2])
batches = st.one_of(clean, clean, clean, spoiled)
picks = st.integers(0, 200)
steps = st.one_of(
    st.tuples(st.just("insert"), batches),
    st.tuples(st.just("insert"), batches),
    st.tuples(st.just("insert_generator"), batches),
    st.tuples(st.just("delete"), batches),  # rows named outright, often absent
    st.tuples(st.just("delete_held"), st.lists(picks, min_size=1, max_size=6)),
    st.tuples(st.just("delete_held"), st.lists(picks, min_size=1, max_size=6)),
    st.tuples(st.just("delete_respelled"), st.lists(picks, min_size=1, max_size=3)),
)


def _held(rows: list, picks: list[int]) -> list[tuple]:
    return [rows[i % len(rows)] for i in picks if rows]


def _respelled(row: tuple) -> tuple:
    """The same row to ``==`` and ``hash``, in types its columns refuse."""
    k, v, w, d, b = row
    return (k, float(v) if v is not None else None, w, d, int(b) if b is not None else None)


def _outcome(call):
    """What a call returned, or the error it raised — type and message."""
    try:
        return call()
    except (MaintenanceError, StorageError, TypeMismatchError, TypeError) as error:
        return (type(error), str(error))


def _catalog() -> ASCatalog:
    database = Database(DatabaseSchema([SCHEMA, OTHER], name="kernel"))
    return ASCatalog(database, AccessSchema(CONSTRAINTS))


class Pair:
    """The live catalog and its oracle, stepped together."""

    #: compare spellings too (``-0.0`` / ``0.0``, ``2`` / ``2.0`` in a
    #: FLOAT column, dict order). Not across a codec round trip: a FLOAT
    #: cell decodes as a float, a rebuilt index has its own order.
    spelled = True

    def same(self, live, expected) -> None:
        assert live == expected
        if self.spelled:
            assert repr(live) == repr(expected)

    def __init__(self, catalog, policy=ViolationPolicy.REJECT):
        self.catalog = catalog
        self.table = catalog.database.table("t")
        self.manager = MaintenanceManager(catalog, policy=policy)
        self.reference = ReferenceMaintenance(
            SCHEMA, catalog.constraints_for("t"), policy
        )

    def live_insert(self, rows):
        return self.manager.insert("t", rows)

    def live_delete(self, rows):
        return self.manager.delete("t", rows)

    def step(self, kind, argument) -> bool:
        """Apply one step to both sides and compare everything; returns
        whether the live side committed a batch."""
        if kind == "delete_held":
            kind, argument = "delete", _held(self.table.rows, argument)
        elif kind == "delete_respelled":
            kind = "delete"
            argument = [_respelled(row) for row in _held(self.table.rows, argument)]
        if kind == "insert_generator":
            live = _outcome(lambda: self.live_insert(row for row in argument))
            expected = _outcome(lambda: self.reference.insert(argument))
        elif kind == "insert":
            live = _outcome(lambda: self.live_insert(argument))
            expected = _outcome(lambda: self.reference.insert(argument))
        else:
            live = _outcome(lambda: self.live_delete(argument))
            expected = _outcome(lambda: self.reference.delete(argument))
        assert live == expected, (kind, argument)
        self.check()
        return isinstance(live, UpdateBatch) and bool(live.inserted or live.deleted)

    def check(self):
        table, reference = self.table, self.reference
        self.same(table.rows, reference.rows)
        assert table.version == reference.version
        locator = table._locator
        if locator is not None:
            assert len(locator.ids) == len(table.rows)
            for row, count in Counter(reference.rows).items():
                assert len(locator.where[row]) == count
        for oracle in reference.indexes:
            live = self.catalog.index_for(self.catalog.schema.get(oracle.constraint.name))
            assert live.constraint == oracle.constraint
            snapshot = live.snapshot()
            self.same(snapshot, oracle.buckets)
            rebuilt = AccessIndex(live.constraint)
            rebuilt.build(table, validate=False)
            assert snapshot == rebuilt.snapshot()


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=25))
def test_batch_path_equals_the_per_row_path_after_every_step(sequence):
    pair = Pair(_catalog())
    for kind, argument in sequence:
        pair.step(kind, argument)


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=20))
def test_adjust_widens_the_same_constraints(sequence):
    pair = Pair(_catalog(), ViolationPolicy.ADJUST)
    for kind, argument in sequence:
        pair.step(kind, argument)


def test_the_refusal_names_the_row_and_constraint_the_row_loop_met_first():
    """Row 3 breaks the third index, row 4 would break the first: the
    per-row loop met row 3 first. And on one row, the earlier index."""
    pair = Pair(_catalog())
    pair.step("insert", [("a", 0, 9.0, "2016-06-01", True), ("a", 1, 9.0, "2016-06-01", False)])
    batch = [
        ("b", 0, 9.0, "2016-06-02", None),  # w_bk[9.0] now holds 3
        ("b", 0, 9.0, "2016-06-02", None),  # a duplicate: no new Y-value
        ("c", 0, 9.0, "2016-06-02", None),  # the 4th Y-value of w_bk[9.0]
        ("a", 2, 1.0, "2016-06-03", None),  # the 3rd Y-value of k_v["a"]
    ]
    live = _outcome(lambda: pair.live_insert(batch))
    assert live == (
        MaintenanceError,
        "insert batch rejected: constraint w_bk violated: X-value (9.0,) "
        "has more than N=3 distinct Y-values",
    )
    assert live == _outcome(lambda: pair.reference.insert(batch))
    pair.check()
    both = [("a", 2, 9.0, "2016-06-03", None)]  # breaks k_v and w_bk at once
    live = _outcome(lambda: pair.live_insert(both))
    assert "constraint k_v violated" in live[1]
    assert live == _outcome(lambda: pair.reference.insert(both))
    pair.check()


def test_nothing_is_touched_before_every_row_is_admitted():
    """The parent appended the rows in front of an inadmissible one and
    then raised; the batch form refuses the batch whole."""
    catalog = _catalog()
    manager = MaintenanceManager(catalog)
    table = catalog.database.table("t")
    good = ("a", 0, 0.5, "2016-06-01", True)
    for bad, error in [
        (("a", True, 0.5, "2016-06-01", True), TypeMismatchError),
        (("a", 0, 0.5, "2016-13-01", True), TypeMismatchError),
        (("a", 0, 0.5, "2016-06-01"), StorageError),
    ]:
        with pytest.raises(error):
            manager.insert("t", [good, bad])
        assert table.rows == [] and table.version == 0
        with pytest.raises(error):
            Table(SCHEMA, [good, bad])
    assert all(
        catalog.index_for(constraint).snapshot() == {} for constraint in catalog.schema
    )


def test_a_bound_of_zero_leaves_no_empty_bucket_behind():
    constraint = AccessConstraint("u", ["k"], ["id"], 0, name="none")
    index = AccessIndex(constraint, Table(OTHER))
    assert index.add_rows([(1, "a")]) == 0
    with pytest.raises(ConformanceError):
        index.insert_rows([(1, "a")])
    assert index.snapshot() == {}
    index.insert_rows([(1, "a")], validate=False)
    assert index.snapshot() == {("a",): {(1,): 1}}


# --------------------------------------------------------------------------- #
# the same sequences over a warm-restarted store, and on a replica
# --------------------------------------------------------------------------- #
SEED_ROWS = [
    ("a", 0, 0.5, "2016-06-01", True),
    ("b", 1, float("nan"), "2016-06-02", None),
    ("b", 1, -0.0, None, False),
]


def _base() -> Database:
    database = Database(DatabaseSchema([SCHEMA, OTHER], name="kernel"))
    database.table("t").insert_rows(SEED_ROWS)
    return database


class StoredPair(Pair):
    """A :class:`Pair` whose live side is a session on the mmap store,
    shadowed by a replica's index subset that is fed each batch's delta."""

    spelled = False

    def __init__(self, session: Session):
        super().__init__(session.beas.catalog)
        self.session = session
        self.reference.insert(SEED_ROWS)
        self.reference.logged.clear()
        # what the fleet ships on first contact: the indices, pickled
        self.replica = pickle.loads(pickle.dumps(session.beas.catalog.index_map()))

    def live_insert(self, rows):
        return self.session.insert("t", rows)

    def live_delete(self, rows):
        return self.session.delete("t", rows)

    def step(self, kind, argument) -> bool:
        logged = len(self.reference.logged)
        committed = super().step(kind, argument)
        assert committed == (len(self.reference.logged) == logged + 1)
        if committed:
            apply_delta_records(self.replica, [self.reference.logged[-1]])
        for oracle in self.reference.indexes:
            assert self.replica[oracle.constraint.name].snapshot() == oracle.buckets
        return committed


@settings(max_examples=40, deadline=None)
@given(st.lists(steps, max_size=12), st.lists(steps, max_size=12))
def test_warm_restart_overlay_wal_replay_and_delta_replay(tmp_path_factory, first, second):
    directory = tmp_path_factory.mktemp("kernel")
    options = ExecutionOptions(storage="mmap", storage_dir=str(directory))
    schema = AccessSchema(CONSTRAINTS)
    Session(_base(), schema, options=options).close()  # cold build + checkpoint

    # a warm start: indices built from the checkpoint's rows
    session = Session(_base(), schema, options=options)
    try:
        assert session.stats().storage.warm_start
        pair = StoredPair(session)
        for kind, argument in first:
            pair.step(kind, argument)
    finally:
        session.close()

    # one record per committed batch, at the version the batch left
    reference = pair.reference
    records = WriteAheadLog(store_log(directory)).replay(repair=False).records
    assert [(r["op"], r["version"]) for r in records] == [
        (r["op"], r["version"]) for r in reference.logged
    ]

    # replay: the indices are rebuilt and the log applied on top; then
    # more batches (emptied and refilled buckets included)
    session = Session(_base(), schema, options=options)
    try:
        storage = session.stats().storage
        assert storage.warm_start
        assert storage.wal_records_replayed == len(reference.logged)
        replayed = StoredPair.__new__(StoredPair)
        Pair.__init__(replayed, session.beas.catalog)
        replayed.session, replayed.reference = session, reference
        replayed.replica = pair.replica
        # a refused batch moved the version and left no record: the
        # replayed table is at the last logged batch's version
        logged = [record["version"] for record in reference.logged]
        assert replayed.table.version == (logged[-1] if logged else len(SEED_ROWS))
        reference.version = replayed.table.version
        replayed.check()
        for kind, argument in second:
            replayed.step(kind, argument)
    finally:
        session.close()


# --------------------------------------------------------------------------- #
# the logged spelling: what a delete writes must decode
# --------------------------------------------------------------------------- #
def test_a_respelled_delete_logs_the_stored_row_and_the_store_reopens(tmp_path):
    """``1.0 == 1 == True``: the table finds the row, but ``"1.0"`` is no
    INT cell. The parent logged the caller's rows and the next open
    raised ``TypeMismatchError`` instead of replaying."""
    options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
    schema = AccessSchema(CONSTRAINTS)
    rows = [(1, "a"), (2, "a"), (3, "b")]

    def base() -> Database:
        database = _base()
        database.table("u").insert_rows(rows)
        return database

    first = Session(base(), schema, options=options)
    try:
        assert first.delete("u", [(1.0, "a")]).deleted == 1
        assert first.delete("u", [(True + 1, "a"), (3.0, "b")]).deleted == 2
        # the stored ints JSON holds as they are; the caller's floats it
        # would not have, in an INT column
        assert first.stats().storage.wal_text_batches == 0
    finally:
        first.close()

    second = Session(base(), schema, options=options)
    try:
        storage = second.stats().storage
        assert storage.warm_start and storage.wal_records_replayed == 2
        table = second.database.table("u")
        assert table.rows == []
        for constraint in second.beas.catalog.schema:
            index = second.beas.catalog.index_for(constraint)
            relation = second.database.table(constraint.relation)
            assert index.snapshot() == AccessIndex(constraint, relation).snapshot()
    finally:
        second.close()


def test_wal_payloads_of_awkward_cells_match_the_per_row_encoder(tmp_path):
    """A batch of awkward cells (a NaN, ±inf, an int in a FLOAT column)
    is logged as the tuples it stored; only a batch marshal refuses (a
    ``str`` subclass cell) is logged in the per-row encoder's text
    cells. A reopen replays every row equal to the live one and each
    cell of the live class, but for the text batch's rows: theirs are
    of the class the per-row encoder's text decodes to."""
    options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
    session = Session(_base(), AccessSchema(CONSTRAINTS), options=options)
    pair = StoredPair(session)
    awkward = [
        ("", 5, float("nan"), "2016-06-01", None),
        ('"x"', None, float("-inf"), None, True),
        (None, 6, 3, "2016-06-02", False),  # an int in the FLOAT column
        ('a"b', 7, -0.0, "2016-06-01", True),
    ]
    plain = [
        ("p", 8, 2.5, "2016-06-03", True),
        ("q", 9, 1e300, "2016-06-03", False),
        ("", None, -0.0, None, None),
        ('"x"', 2**70, 0.1, "2016-06-01", None),
    ]
    subclassed = [(Text("s"), 10, 4, None, None)]  # and an int in FLOAT
    dtypes = SCHEMA.dtypes
    try:
        assert pair.step("insert", awkward)
        assert pair.step("insert", plain)
        assert pair.step("insert", subclassed)
        assert pair.step("delete", [awkward[1], plain[1], awkward[0]])
        assert pair.step("delete", [plain[0], plain[2]])
        storage = session.stats().storage
        assert (storage.wal_records_appended, storage.wal_text_batches) == (5, 1)
        live = list(pair.table.rows)
    finally:
        session.close()
    records = WriteAheadLog(store_log(tmp_path)).replay(repair=False).records
    assert [record.get("rows") for record in records] == [
        None, None, [encode_row(row, dtypes) for row in subclassed], None, None
    ]
    assert [type(cell) for cell in records[2]["rows"][0]] == [str] * 5

    reopened = Session(_base(), AccessSchema(CONSTRAINTS), options=options)
    try:
        assert reopened.stats().storage.wal_records_replayed == 5
        rows = reopened.database.table("t").rows
        assert rows == live
        texts = len(subclassed)
        assert [list(map(type, row)) for row in rows] == [
            list(map(type, row)) for row in live[:-texts]
        ] + [
            list(map(type, decode_row(encode_row(row, dtypes), dtypes)))
            for row in live[-texts:]
        ]
        # the int in a FLOAT column: as stored, but from the text cells
        assert [type(row[2]) for row in rows if row[1] in (6, 10)] == [int, float]
    finally:
        reopened.close()


# --------------------------------------------------------------------------- #
# what a conforming batch still pays: counts
# --------------------------------------------------------------------------- #
class _Counter:
    def __init__(self, monkeypatch):
        self.counts: dict[str, int] = {}
        self._monkeypatch = monkeypatch

    def wrap(self, owner, name: str, label: str) -> None:
        inner = getattr(owner, name)
        self.counts.setdefault(label, 0)

        def counted(*args, **kwargs):
            self.counts[label] += 1
            return inner(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, counted)


def test_conforming_batches_make_no_per_value_call(tmp_path, monkeypatch):
    """200 eight-row inserts and 100 sixteen-row deletes on TLC's 30-column
    ``call`` (the ``maint_mix`` shape): every value has exactly its
    column's type, so nothing is interpreted per value — ~800 calls a
    batch on the per-row path — and nothing is encoded: the WAL logs the stored
    values as they are, with no ``encode_value`` and no per-cell encoder
    call."""
    dataset = generate_tlc(1, 42)
    database = Database(dataset.database.schema, name=dataset.database.name)
    for table in dataset.database:
        database.table(table.schema.name).rows = list(table.rows)
    options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
    session = Session(database, tlc_access_schema(), options=options)
    source = list(database.table("call").rows)
    batches = [
        [(10**7 + 8 * n + i,) + source[(8 * n + i) % len(source)][1:] for i in range(8)]
        for n in range(200)
    ]
    try:
        session.insert("call", batches[0])  # plan, pickers, locator: once
        session.delete("call", batches[0])
        counter = _Counter(monkeypatch)
        counter.wrap(table_module, "is_compatible", "is_compatible")
        counter.wrap(types_module, "_coerce_date", "_coerce_date")
        counter.wrap(codec_module, "encode_value", "encode_value")
        counter.wrap(mmapstore_module, "encode_row", "encode_row")
        for module in (table_module, index_module, codec_module):
            counter.wrap(module, "canonical_key", "canonical_key")
        for batch in batches:
            assert session.insert("call", batch).inserted == 8
        for n in range(100):
            victims = batches[2 * n] + batches[2 * n + 1]
            assert session.delete("call", victims).deleted == 16
        assert counter.counts == {
            "is_compatible": 0,
            "_coerce_date": 0,
            "encode_value": 0,
            "encode_row": 0,
            "canonical_key": 0,
        }
        storage = session.stats().storage
        assert (storage.wal_records_appended, storage.wal_text_batches) == (302, 0)
        assert database.table("call").rows == source
    finally:
        session.close()


def test_a_batch_that_does_not_conform_takes_the_walk(monkeypatch):
    """A subclass instance or an un-normalised DATE is no reason to
    refuse — ``isinstance`` never did — only to look value by value."""
    catalog = _catalog()
    manager = MaintenanceManager(catalog)
    counter = _Counter(monkeypatch)
    counter.wrap(table_module, "is_compatible", "is_compatible")
    manager.insert("t", [("a", 0, 0.5, "2016-06-01", True)] * 2)
    assert counter.counts["is_compatible"] == 0
    manager.insert("t", [(Text("a"), 0, 0.5, "2016-06-01", True)])
    assert counter.counts["is_compatible"] == 5
    manager.insert("t", [("b", Count(1), 0.5, "2016-6-1", None)])
    assert counter.counts["is_compatible"] == 10
    assert catalog.database.table("t").rows[-1] == ("b", 1, 0.5, "2016-06-01", None)


def test_an_int_no_float_can_hold_is_refused():
    """``10**400`` in a FLOAT column was admitted and stored as spelled,
    and its text decoded as ``inf``: a different row after a restart.
    It is no FLOAT — at a glance, value by value and coerced alike."""
    catalog = _catalog()
    manager = MaintenanceManager(catalog)
    table = catalog.database.table("t")
    for row in (("a", 0, 10**400, None, None), (Text("a"), 0, -(10**400), None, None)):
        with pytest.raises(TypeMismatchError, match="is not a FLOAT"):
            manager.insert("t", [("a", 1, 2, None, None), row])
    with pytest.raises(TypeMismatchError, match="as FLOAT"):
        table.insert(("a", 0, 10**400, None, None), coerce=True)
    assert table.rows == [] and table.version == 0
    manager.insert("t", [("a", 0, 2**62, None, None)])
    assert table.rows == [("a", 0, 2**62, None, None)]


def test_an_unnormalised_date_survives_a_restart(tmp_path):
    """``2016-6-1`` was stored as spelled but decoded as ``2016-06-01``,
    so WAL replay rebuilt a different row under different index keys.
    It is normalised at admission: the live table, a warm restart and a
    from-scratch build hold the same rows, buckets and ``psi1`` answer."""
    from tests.conftest import example1_access_schema, example1_database

    options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
    spelled = [(70, "100", "770", "2016-6-1", "bay"), (71, "100", "771", " 2016-06-01 ", "bay")]
    stored = [(70, "100", "770", "2016-06-01", "bay"), (71, "100", "771", "2016-06-01", "bay")]

    def state(session):
        catalog = session.beas.catalog
        psi1 = catalog.schema.get("psi1")
        key = tuple({"pnum": "100", "date": "2016-06-01"}[name] for name in psi1.x)
        return (
            session.database.table("call").rows,
            {c.name: catalog.index_for(c).snapshot() for c in catalog.schema},
            sorted(catalog.index_for(psi1).fetch(key)),
        )

    live = Session(example1_database(), example1_access_schema(), options=options)
    try:
        assert live.insert("call", spelled).inserted == 2
        assert live.database.table("call").rows[-2:] == stored
        before = state(live)
        assert ("770", "bay") in before[2] and ("771", "bay") in before[2]
    finally:
        live.close()

    reopened = Session(example1_database(), example1_access_schema(), options=options)
    try:
        assert reopened.stats().storage.warm_start
        assert state(reopened) == before
        scratch_db = example1_database()
        scratch_db.table("call").insert_rows(stored)
        with Session(scratch_db, example1_access_schema()) as scratch:
            assert state(scratch) == before
        # a delete names a row in either spelling
        assert reopened.delete("call", [spelled[0], stored[1]]).deleted == 2
    finally:
        reopened.close()


# --------------------------------------------------------------------------- #
# process and thread boundaries
# --------------------------------------------------------------------------- #
def _holds_no_callable(state) -> bool:
    if callable(state):
        return False
    if isinstance(state, dict):
        return all(map(_holds_no_callable, state.keys())) and all(
            map(_holds_no_callable, state.values())
        )
    if isinstance(state, (list, tuple, set, frozenset)):
        return all(map(_holds_no_callable, state))
    return True


def test_pickers_never_cross_a_pickle(tmp_path):
    catalog = _catalog()
    MaintenanceManager(catalog).insert("t", SEED_ROWS)
    plain = catalog.index_for(catalog.schema.get("w_bk"))
    assert plain._pickers is not None  # compiled by the insert
    assert plain.__getstate__()["_pickers"] is None
    assert _holds_no_callable(
        {k: v for k, v in plain.__getstate__().items() if k != "constraint"}
    )

    options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
    Session(_base(), AccessSchema(CONSTRAINTS), options=options).close()
    session = Session(_base(), AccessSchema(CONSTRAINTS), options=options)
    try:
        assert session.stats().storage.warm_start
        session.insert("t", [("z", 3, 4.5, "2016-06-05", True)])
        warm = session.beas.catalog.index_for(session.beas.catalog.schema.get("w_bk"))
        assert type(warm) is AccessIndex and warm._pickers is not None
        assert _holds_no_callable(
            {k: v for k, v in warm.__getstate__().items() if k != "constraint"}
        )
        for index in (plain, warm):
            shipped = pickle.loads(pickle.dumps(index))
            assert type(shipped) is AccessIndex and shipped._pickers is None
            assert shipped._floats == index._floats and shipped._x_float
            assert shipped.snapshot() == index.snapshot()
            # the plan is rebuilt on arrival, by the first batch
            row = ("y", 1, float("nan"), None, False)
            shipped.insert_rows([row])
            index.insert_rows([row])
            assert shipped.snapshot() == index.snapshot()
            assert shipped.fetch((float("nan"),)) == [] and shipped.fetch((None,)) == []
    finally:
        session.close()


def test_fetch_guard():
    """NULL never matches, whatever the key's types; NaN can only be
    asked about where X has a FLOAT part."""
    catalog = _catalog()
    MaintenanceManager(catalog).insert("t", SEED_ROWS + [(None, 5, None, None, None)])
    by_float = catalog.index_for(catalog.schema.get("w_bk"))
    by_text = catalog.index_for(catalog.schema.get("dk_w"))
    assert by_float._x_float and not by_text._x_float
    assert by_float.fetch((0.5,)) == [(True, "a")]
    assert by_float.fetch([0.5]) == [(True, "a")]  # any sequence is a key
    assert by_float.fetch((0.0,)) == [(False, "b")]  # -0.0 == 0.0
    assert by_float.fetch((float("nan"),)) == [] and (float("nan"),) in by_float
    assert by_float.fetch((None,)) == [] and (None,) in by_float
    assert by_text.fetch(("2016-06-01", "a")) == [(0.5,)]
    assert by_text.fetch((None, "b")) == [] and (None, "b") in by_text
    assert by_text.fetch((None, None)) == []


def test_writers_on_disjoint_tables_while_readers_fetch():
    database = Database(DatabaseSchema([SCHEMA, OTHER], name="kernel"))
    session = Session(database, AccessSchema(CONSTRAINTS))
    errors: list[BaseException] = []
    done = threading.Event()

    def write_t(worker: int) -> None:
        for n in range(60):
            rows = [(f"w{worker}", n, float(worker), "2016-06-01", True)] * 2
            session.insert("t", rows, adjust_bounds=True)
            session.delete("t", rows)

    def write_u(worker: int) -> None:
        for n in range(60):
            rows = [(1000 * worker + n, f"u{worker}"), (1000 * worker + n, "shared")]
            session.insert("u", rows, adjust_bounds=True)
            session.delete("u", rows[:1])

    def read() -> None:
        by_key = session.beas.catalog.index_for(session.beas.catalog.schema.get("u_k"))
        while not done.is_set():
            for ident in by_key.fetch(("shared",)):
                assert ident[0] % 1000 < 60

    def guarded(target, *args):
        def run():
            try:
                target(*args)
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                errors.append(error)
        return threading.Thread(target=run)

    writers = [guarded(write_t, w) for w in range(4)] + [guarded(write_u, w) for w in range(4)]
    readers = [guarded(read) for _ in range(2)]
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert errors == []
        assert database.table("t").rows == []
        assert sorted(database.table("u").rows) == sorted(
            (1000 * w + n, "shared") for w in range(4) for n in range(60)
        )
        for constraint in session.beas.catalog.schema:
            index = session.beas.catalog.index_for(constraint)
            table = database.table(constraint.relation)
            rebuilt = AccessIndex(constraint)
            rebuilt.build(table, validate=False)
            assert index.snapshot() == rebuilt.snapshot()
    finally:
        done.set()
        session.close()
