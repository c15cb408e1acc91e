"""The WAL logs the rows a batch stored, as the tuples they are.

A committed batch is logged as its stored tuples (``"values"``, in
marshal frames); only a batch marshal refuses — one with a ``str`` or
``int`` subclass cell — is logged in the codec's text cells (``"rows"``).
A reopen must rebuild the table the live session had, row for row and
class for class: an ``int`` in a FLOAT column comes back an ``int``, a
NaN the one canonical NaN. The one exception is a row a text-cell batch
inserted, whose cells come back of the classes
``decode_row(encode_row(row))`` gives (an ``int`` in a FLOAT column a
``float``, a ``str`` subclass a ``str``).

Replay admits a logged batch as a live write is admitted, so a
CRC-valid record whose cell is not of its column's type is refused at
open, and a payload that does not load as a record dict is a bad frame:
the log is truncated before it. Nothing in a damaged log is ever run.
"""

from __future__ import annotations

import json
import marshal
import shutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessIndex,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionOptions,
    Session,
    TableSchema,
)
from repro.catalog.types import coerce_value, is_compatible
from repro.errors import MaintenanceError, StorageError, TypeMismatchError
from repro.storage.codec import CANONICAL_NAN, decode_row, encode_row
from repro.storage.table import WritePlan
from repro.storage.wal import WriteAheadLog, frame_record, split_frame_header

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
DTYPES = SCHEMA.dtypes
#: bounds no batch here reaches: every admissible batch commits
CONSTRAINTS = AccessSchema(
    [
        AccessConstraint("t", ["k"], ["v", "w"], 10**6, name="k_vw"),
        AccessConstraint("t", ["w", "d"], ["b"], 10**6, name="wd_b"),
    ]
)
TOO_BIG = 10**400  # an int no float can hold: no FLOAT, refused
HUGE = 10**5000  # more digits than an int's text may have: no INT, refused


class Text(str):
    """A ``str`` subclass: admitted, and logged in text cells."""


class Count(int):
    """An ``int`` subclass: admitted, and logged in text cells."""


strings = st.one_of(
    st.sampled_from([None, "", '"x"', '""', 'a"b', "a", Text("a")]),
    st.text(max_size=3),
)
ints = st.one_of(st.sampled_from([None, 0, -1, 2**70, Count(3), HUGE]), st.integers())
floats = st.one_of(
    st.sampled_from([None, 0.0, -0.0, 1.5, 1e300, 5e-324, 2, TOO_BIG]),
    st.floats(),  # NaN and ±inf included
)
dates = st.sampled_from([None, "2016-06-01", "2016-6-1", " 2016-06-02 "])
bools = st.sampled_from([None, True, False])
rows = st.tuples(strings, ints, floats, dates, bools)
batches = st.lists(rows, min_size=1, max_size=4)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), batches),
        st.tuples(st.just("insert"), batches),
        st.tuples(st.just("delete"), st.lists(st.integers(0, 50), min_size=1, max_size=3)),
    ),
    max_size=8,
)


def _base() -> Database:
    database = Database(DatabaseSchema([SCHEMA], name="wal-values"))
    database.table("t").insert_rows(
        [("a", 1, 0.5, "2016-06-01", True), ("b", 2, float("nan"), None, None)]
    )
    return database


def _session(directory) -> Session:
    options = ExecutionOptions(storage="mmap", storage_dir=str(directory))
    return Session(_base(), CONSTRAINTS, options=options)


class Live:
    """A session on the store, and per live row the position in the log
    of the record of the insert that stored it (``-1``: a base row)."""

    def __init__(self, directory):
        self.session = _session(directory)
        self.table = self.session.database.table("t")
        self.origins = [-1] * len(self.table.rows)

    def apply(self, kind: str, argument) -> None:
        """One step; a refused batch (``10**400``, ``10**5000``, a row
        named twice) logs nothing and is no failure."""
        session, table = self.session, self.table
        if kind == "insert":
            position = session.stats().storage.wal_records_appended
            try:
                session.insert("t", argument)
            except TypeMismatchError:
                assert any(row[1] is HUGE or row[2] is TOO_BIG for row in argument)
                return
            self.origins += [position] * (len(table.rows) - len(self.origins))
            return
        held = list(table.rows)
        named = [held[i % len(held)] for i in argument] if held else []
        try:
            session.delete("t", named)
        except MaintenanceError:
            return
        for row in named:  # each takes its oldest occurrence with it
            position = held.index(row)
            del held[position], self.origins[position]
        assert held == table.rows

    def close(self) -> tuple[list, list[int]]:
        """Close the session; the live rows and their origins."""
        self.session.close()
        return list(self.table.rows), self.origins


def _state(session: Session) -> tuple:
    catalog = session.beas.catalog
    return (
        list(session.database.table("t").rows),
        {c.name: catalog.index_for(c).snapshot() for c in catalog.schema},
    )


def _text_classes(row: tuple) -> list:
    """Per cell, the class ``decode_row(encode_row(row))`` gives."""
    return list(map(type, decode_row(encode_row(row, DTYPES), DTYPES)))


def _assert_replays(live: list, origins: list[int], directory, replayed: Session) -> None:
    """Rows equal to the live ones, each cell of its live class — of
    its text cell's class when a text-cell record inserted the row —
    and every index equal to a from-scratch build."""
    records = WriteAheadLog(store_log(directory)).replay(repair=False).records
    text = {position for position, record in enumerate(records) if "rows" in record}
    table = replayed.database.table("t")
    assert replayed.stats().storage.warm_start
    assert table.rows == live
    assert [list(map(type, row)) for row in table.rows] == [
        _text_classes(row) if origin in text else list(map(type, row))
        for row, origin in zip(live, origins)
    ]
    for row in table.rows:
        assert all(cell is CANONICAL_NAN for cell in row if cell != cell)
    catalog = replayed.beas.catalog
    for constraint in catalog.schema:
        assert catalog.index_for(constraint).snapshot() == (
            AccessIndex(constraint, table).snapshot()
        )


# --------------------------------------------------------------------------- #
# close -> reopen
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(steps)
def test_a_reopen_replays_every_admitted_batch_alike(tmp_path_factory, sequence):
    directory = tmp_path_factory.mktemp("wal-values")
    live = Live(directory)
    try:
        for kind, argument in sequence:
            live.apply(kind, argument)
    finally:
        rows, origins = live.close()
    replayed = _session(directory)
    try:
        _assert_replays(rows, origins, directory, replayed)
    finally:
        replayed.close()


def test_an_int_with_no_decimal_text_is_refused_whole(tmp_path):
    """An INT cell with more digits than ``sys.get_int_max_str_digits()``
    has no text for a CSV or the WAL's text cells: the batch is refused
    at admission, on every engine, and the table, its version and the
    log stay put."""
    limit = sys.get_int_max_str_digits()
    for value in (10**limit - 1, -(10**limit - 1)):  # exactly the limit
        assert is_compatible(value, DataType.INT)
        assert coerce_value(value, DataType.INT) == value
        assert WritePlan(SCHEMA).admit([("z", value, 0.5, None, None)])[0][1] == value
    for value in (10**limit, -(10**limit), HUGE):  # a digit or more past it
        assert not is_compatible(value, DataType.INT)
        with pytest.raises(TypeMismatchError):
            coerce_value(value, DataType.INT)
        with pytest.raises(TypeMismatchError):
            WritePlan(SCHEMA).admit([("z", value, 0.5, None, None)])
    batch = [("z", 5, 0.5, None, None), ("z", HUGE, 0.5, None, None)]
    with Session(_base(), CONSTRAINTS) as memory:
        with pytest.raises(TypeMismatchError):
            memory.insert("t", batch)
        assert memory.database.table("t").rows == _base().table("t").rows
    session = _session(tmp_path)
    try:
        table = session.database.table("t")
        before = (list(table.rows), table.version, _state(session))
        with pytest.raises(TypeMismatchError):
            session.insert("t", batch)
        assert (list(table.rows), table.version, _state(session)) == before
        assert session.stats().storage.wal_records_appended == 0
        live = list(table.rows)
    finally:
        session.close()
    replayed = _session(tmp_path)
    try:
        _assert_replays(live, [-1] * len(live), tmp_path, replayed)
    finally:
        replayed.close()


MIXED = [
    ("insert", [("p", 8, 2.5, "2016-06-03", True), ("", None, -0.0, None, None)]),
    ("insert", [(Text('"x"'), 9, float("nan"), "2016-6-1", False)]),  # text cells
    ("insert", [("q", 2**70, 1e300, None, None), ("r", Count(3), 2, None, True)]),  # text
    ("delete", [2, 3]),
    ("insert", [("s", 4, 0.25, "2016-06-04", None)] * 2),
    ("delete", [5, 0]),
]


def _rewrite(path, convert) -> None:
    """Rewrite the WAL at ``path`` record by record."""
    records = WriteAheadLog(path).replay(repair=False).records
    path.write_bytes(b"")
    wal = WriteAheadLog(path)
    for position, record in enumerate(records):
        wal.append(convert(position, record))
    wal.close()


def _as_text(record: dict) -> dict:
    """A record of stored tuples, in text cells."""
    if "values" not in record:
        return record
    record = dict(record)
    record["rows"] = [encode_row(row, DTYPES) for row in record.pop("values")]
    return record


def test_a_text_only_wal_and_a_mixed_one_warm_start_alike(tmp_path):
    live = Live(tmp_path / "typed")
    try:
        for kind, argument in MIXED:
            live.apply(kind, argument)
        storage = live.session.stats().storage
        assert (storage.wal_records_appended, storage.wal_text_batches) == (6, 2)
    finally:
        rows, origins = live.close()
    shutil.copytree(tmp_path / "typed", tmp_path / "text")
    shutil.copytree(tmp_path / "typed", tmp_path / "mixed")
    _rewrite(store_log(tmp_path / "text"), lambda _, record: _as_text(record))
    _rewrite(
        store_log(tmp_path / "mixed"),
        lambda position, record: _as_text(record) if position % 2 else record,
    )
    kinds = {
        name: [
            "values" in record
            for record in WriteAheadLog(store_log(tmp_path / name)).replay().records
        ]
        for name in ("typed", "text", "mixed")
    }
    assert kinds == {
        "typed": [True, False, False, True, True, True],
        "text": [False] * 6,
        "mixed": [True, False, False, False, True, False],
    }
    states = []
    for name in ("typed", "text", "mixed"):
        replayed = _session(tmp_path / name)
        try:
            assert replayed.stats().storage.wal_records_replayed == 6
            _assert_replays(rows, origins, tmp_path / name, replayed)
            states.append(_state(replayed))
        finally:
            replayed.close()
    assert states[0] == states[1] == states[2]


def test_a_torn_typed_tail_is_truncated(tmp_path):
    session = _session(tmp_path)
    try:
        session.insert("t", [("p", 8, 2.5, "2016-06-03", True)])
        kept = list(session.database.table("t").rows)
        version = session.database.table("t").version
        session.insert("t", [("q", 9, 0.75, None, False)])
        assert session.stats().storage.wal_text_batches == 0
    finally:
        session.close()
    wal = store_log(tmp_path)
    whole = wal.read_bytes()
    first = WriteAheadLog(wal).replay(repair=False).records[0]
    assert first["values"] == [("p", 8, 2.5, "2016-06-03", True)]
    first_frame = 8 + split_frame_header(whole[:8])[0]
    wal.write_bytes(whole[:-7])  # the second frame loses its last bytes

    replayed = _session(tmp_path)
    try:
        storage = replayed.stats().storage
        assert storage.wal_records_replayed == 1
        assert storage.wal_dropped_bytes == len(whole) - 7 - first_frame
        assert replayed.database.table("t").version == version
        _assert_replays(kept, [-1, -1, 0], tmp_path, replayed)
    finally:
        replayed.close()
    assert len(wal.read_bytes()) == first_frame


def _append_frame(directory, payload: bytes) -> None:
    with open(store_log(directory), "ab") as handle:
        handle.write(frame_record(payload))


def _refused_whole(directory, error, rows=None) -> None:
    """Opening the store raises ``error`` at the last record, and the
    table it was replaying into holds ``rows`` (by default the base
    rows): every record before the last, and not one row of it."""
    database = _base()
    options = ExecutionOptions(storage="mmap", storage_dir=str(directory))
    with pytest.raises(error):
        Session(database, CONSTRAINTS, options=options)
    expected = _base().table("t").rows if rows is None else rows
    assert database.table("t").rows == expected


@pytest.mark.parametrize(
    "payload, error",
    [
        ('"values":[["c",1.5,0.5,null,null]]', TypeMismatchError),  # float in INT
        ('"values":[["c",true,0.5,null,null]]', TypeMismatchError),  # bool in INT
        ('"values":[["c",1,"0.5",null,null]]', TypeMismatchError),  # text in FLOAT
        ('"values":[["c",1,0.5,"2016-13-01",null]]', TypeMismatchError),  # no DATE
        ('"values":[["c",1,0.5,null]]', StorageError),  # a short row
        # the text cells of the first and the short row: refused alike
        ('"rows":[["c","1.5","0.5","",""]]', TypeMismatchError),
        ('"rows":[["c","1","0.5",""]]', StorageError),
    ],
)
def test_a_cell_that_is_not_its_columns_type_is_refused(tmp_path, payload, error):
    """A CRC-valid record whose cell is no value of its column is
    refused at open, as a live write of it is. The record is spelled
    here in JSON, for reading; it is logged as marshal writes it."""
    _session(tmp_path).close()
    record = json.loads('{"op":"insert","table":"t",%s,"version":3}' % payload)
    _append_frame(tmp_path, marshal.dumps(record, 4))
    _refused_whole(tmp_path, error)


INSERT = {"op": "insert", "table": "t", "version": 3}

#: a CRC-valid frame payload, then ``None`` for a bad frame (the log is
#: truncated before it) or the error a reopen raises
BAD_PAYLOADS = {
    "wrong-arity": ({**INSERT, "values": [("c", 1, 0.5, None)]}, StorageError),
    "wrong-class": ({**INSERT, "values": [("c", "1", 0.5, None, None)]}, TypeMismatchError),
    "wrong-class-delete": (
        {**INSERT, "op": "delete", "values": [("a", 1.0, 0.5, "2016-06-01", True)]},
        TypeMismatchError,
    ),
    "unknown-op": ({**INSERT, "op": "upsert", "values": [("c", 1, 0.5, None, None)]}, StorageError),
    "no-table": ({"op": "insert", "version": 3, "values": []}, StorageError),
    "text-cell-not-text": ({**INSERT, "rows": [[1, 2, 3, 4, 5]]}, StorageError),
    "list": ([{**INSERT, "values": []}], None),
    "int": (3, None),
    "code": (compile("1", "", "eval"), None),
}


@pytest.mark.parametrize("name", [*BAD_PAYLOADS, "not-marshal"])
def test_a_crc_valid_payload_that_is_no_record_is_refused(tmp_path, name):
    """A frame whose CRC checks out but whose payload is no record the
    store writes is never applied: the open is refused, or the frame
    is cut off the log as a torn one would be."""
    if name == "not-marshal":
        data, error = b"\xff", None  # no marshal type code
    else:
        value, error = BAD_PAYLOADS[name]
        data = marshal.dumps(value, 4)
    live = Live(tmp_path)
    try:
        live.apply("insert", [("p", 8, 2.5, "2016-06-03", True)])
    finally:
        rows, origins = live.close()
    good = store_log(tmp_path).stat().st_size
    _append_frame(tmp_path, data)
    if error is not None:
        _refused_whole(tmp_path, error, rows)
        return
    replayed = _session(tmp_path)
    try:
        storage = replayed.stats().storage
        assert storage.wal_records_replayed == 1
        assert storage.wal_dropped_bytes == 8 + len(data)
        _assert_replays(rows, origins, tmp_path, replayed)
    finally:
        replayed.close()
    assert store_log(tmp_path).stat().st_size == good


def test_a_marshalled_code_object_is_never_called(tmp_path):
    """Reading a log builds values and runs nothing: a code object in
    the log, as the payload or as a cell, is read and refused, never
    called — though it leaves its mark when it is."""
    marker = tmp_path / "ran"
    code = compile(f"open({str(marker)!r}, 'w').close()", "<wal>", "exec")
    store = tmp_path / "store"
    _session(store).close()
    _append_frame(store, marshal.dumps(code, 4))
    reopened = _session(store)
    try:
        assert reopened.stats().storage.wal_dropped_bytes > 0
    finally:
        reopened.close()
    cell = {**INSERT, "values": [("c", code, 0.5, None, None)]}
    _append_frame(store, marshal.dumps(cell, 4))
    _refused_whole(store, TypeMismatchError)
    assert not marker.exists()
    exec(code)
    assert marker.exists()
