"""The WAL logs the rows a batch stored, as JSON values where JSON can.

A committed batch whose every cell is ``None`` or exactly its column's
Python type, with every FLOAT cell a finite ``float``, is logged as the
stored tuples (``"values"``); any other batch in the codec's text cells
(``"rows"``, the only record form a store written before held). Whatever
the form, a reopen must rebuild the table the live session had: every
row equal, and every cell of the class ``decode_row(encode_row(row))``
gives — the text path's word on what a restart may change (an ``int``
in a FLOAT column comes back a ``float``, a ``str`` subclass a ``str``).

The gate is what makes the typed form safe: the append runs after the
in-memory apply, so a record ``json.dumps(allow_nan=False)`` refused
would be an applied write with no log. Letting an ``int`` through in a
FLOAT column breaks the class property below; letting ``inf`` through
breaks the append.
"""

from __future__ import annotations

import json
import shutil

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
from repro.errors import MaintenanceError, StorageError, TypeMismatchError
from repro.storage.codec import (
    ExactRows,
    decode_json_rows,
    decode_row,
    encode_row,
    json_gate,
)
from repro.storage.table import WritePlan
from repro.storage.wal import WriteAheadLog, frame_record

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


class Text(str):
    """A ``str`` subclass: admitted, and logged in text cells."""


class Count(int):
    """An ``int`` subclass: admitted, and logged in text cells."""


strings = st.one_of(
    st.sampled_from([None, "", '"x"', '""', 'a"b', "a", Text("a")]),
    st.text(max_size=3),
)
ints = st.one_of(st.sampled_from([None, 0, -1, 2**70, Count(3)]), st.integers())
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


def _apply(session: Session, kind: str, argument) -> None:
    """One step; a refused batch (``10**400``, a row named twice) logs
    nothing and is no failure."""
    if kind == "insert":
        try:
            session.insert("t", argument)
        except TypeMismatchError:
            assert any(row[2] is TOO_BIG for row in argument)
        return
    held = session.database.table("t").rows
    try:
        session.delete("t", [held[i % len(held)] for i in argument] if held else [])
    except MaintenanceError:
        pass


def _state(session: Session) -> tuple:
    catalog = session.beas.catalog
    return (
        list(session.database.table("t").rows),
        {c.name: catalog.index_for(c).snapshot() for c in catalog.schema},
    )


def _classes_after_text(rows: list) -> list:
    """Per cell, the class ``decode_row(encode_row(row))`` gives once the
    cells have been through a file (a ``str`` subclass is a ``str``)."""
    return [
        list(map(type, decode_row(json.loads(json.dumps(encode_row(row, DTYPES))), DTYPES)))
        for row in rows
    ]


def _assert_replays(live: list, replayed: Session) -> None:
    """Rows equal to the live ones, each cell of the class its text
    cell decodes to, and every index equal to a from-scratch build."""
    table = replayed.database.table("t")
    assert replayed.stats().storage.warm_start
    assert table.rows == live
    assert [list(map(type, row)) for row in table.rows] == _classes_after_text(live)
    catalog = replayed.beas.catalog
    for constraint in catalog.schema:
        assert catalog.index_for(constraint).snapshot() == (
            AccessIndex(constraint, table).snapshot()
        )


# --------------------------------------------------------------------------- #
# the gate, on its own
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(batches)
def test_the_gate_passes_only_rows_json_reads_back_alike(batch):
    gate = json_gate(DTYPES)
    plan = WritePlan(SCHEMA)
    try:
        admitted = plan.admit(batch)
    except TypeMismatchError:
        return
    for candidate in (admitted, list(admitted)):
        if not gate(candidate):
            continue
        text = json.dumps(candidate, allow_nan=False)  # never refused
        back = decode_json_rows(json.loads(text), DTYPES)
        assert back == list(candidate)
        assert [list(map(type, row)) for row in back] == _classes_after_text(candidate)


def test_what_the_gate_sends_to_the_text_cells():
    gate = json_gate(DTYPES)
    plain = ("a", 1, 0.5, "2016-06-01", True)
    assert gate([plain, ("", None, -0.0, None, None), ('"x"', 2**70, 1e300, None, False)])
    for row in (
        ("a", 1, 2, None, None),  # an int in the FLOAT column
        ("a", 1, float("nan"), None, None),
        ("a", 1, float("inf"), None, None),
        ("a", 1, float("-inf"), None, None),
        (Text("a"), 1, 0.5, None, None),
        ("a", Count(1), 0.5, None, None),
        ("a", True, 0.5, None, None),  # a bool in the INT column
        ("a", 1, 0.5, None),  # a short row
    ):
        assert not gate([plain, row]), row
    # admission's verdict spares the other columns, not the FLOAT ones
    assert gate(ExactRows([plain]))
    assert not gate(ExactRows([("a", 1, 2, None, None)]))
    assert not gate(ExactRows([("a", 1, float("inf"), None, None)]))
    assert type(WritePlan(SCHEMA).admit([plain])) is ExactRows
    assert type(WritePlan(SCHEMA).admit([(Text("a"), 1, 0.5, None, None)])) is list


# --------------------------------------------------------------------------- #
# close -> reopen
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(steps)
def test_a_reopen_replays_every_admitted_batch_alike(tmp_path_factory, sequence):
    directory = tmp_path_factory.mktemp("wal-values")
    session = _session(directory)
    try:
        for kind, argument in sequence:
            _apply(session, kind, argument)
        live = list(session.database.table("t").rows)
    finally:
        session.close()
    replayed = _session(directory)
    try:
        _assert_replays(live, replayed)
    finally:
        replayed.close()


MIXED = [
    ("insert", [("p", 8, 2.5, "2016-06-03", True), ("", None, -0.0, None, None)]),
    ("insert", [('"x"', 9, float("nan"), "2016-6-1", False)]),  # text cells
    ("insert", [("q", 2**70, 1e300, None, None), ("r", 3, 2, None, True)]),  # text
    ("delete", [2, 3]),
    ("insert", [("s", 4, 0.25, "2016-06-04", None)] * 2),
    ("delete", [5, 0]),
]


def _rewrite(path, convert) -> None:
    """Rewrite the WAL at ``path`` record by record."""
    records = WriteAheadLog(path).replay(repair=False).records
    wal = WriteAheadLog(path)
    wal.reset()
    for position, record in enumerate(records):
        wal.append(convert(position, record))
    wal.close()


def _as_text(record: dict) -> dict:
    """A typed record as a store without the typed form wrote it."""
    if "values" not in record:
        return record
    record = dict(record)
    rows = decode_json_rows(record.pop("values"), DTYPES)
    record["rows"] = [encode_row(row, DTYPES) for row in rows]
    return record


def test_a_text_only_wal_and_a_mixed_one_warm_start_alike(tmp_path):
    session = _session(tmp_path / "typed")
    try:
        for kind, argument in MIXED:
            _apply(session, kind, argument)
        live = list(session.database.table("t").rows)
        storage = session.stats().storage
        assert (storage.wal_records_appended, storage.wal_text_batches) == (6, 2)
    finally:
        session.close()
    shutil.copytree(tmp_path / "typed", tmp_path / "text")
    shutil.copytree(tmp_path / "typed", tmp_path / "mixed")
    _rewrite(tmp_path / "text" / "wal.log", lambda _, record: _as_text(record))
    _rewrite(
        tmp_path / "mixed" / "wal.log",
        lambda position, record: _as_text(record) if position % 2 else record,
    )
    kinds = {
        name: [
            "values" in record
            for record in WriteAheadLog(tmp_path / name / "wal.log").replay().records
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
            _assert_replays(live, replayed)
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
    wal = tmp_path / "wal.log"
    whole = wal.read_bytes()
    first = WriteAheadLog(wal).replay(repair=False).records[0]
    assert "values" in first
    wal.write_bytes(whole[:-7])  # the second frame loses its last bytes

    replayed = _session(tmp_path)
    try:
        storage = replayed.stats().storage
        assert storage.wal_records_replayed == 1
        assert storage.wal_dropped_bytes == len(whole) - 7 - len(
            frame_record(json.dumps(first, separators=(",", ":"), sort_keys=True).encode())
        )
        assert replayed.database.table("t").version == version
        _assert_replays(kept, replayed)
    finally:
        replayed.close()
    assert len(wal.read_bytes()) == len(whole) - 7 - storage.wal_dropped_bytes


@pytest.mark.parametrize(
    "payload, error",
    [
        ('"values":[["c",1.5,0.5,null,null]]', TypeMismatchError),  # float in INT
        ('"values":[["c",true,0.5,null,null]]', TypeMismatchError),  # bool in INT
        ('"values":[["c",1,2,null,null]]', TypeMismatchError),  # int in FLOAT
        ('"values":[["c",1,NaN,null,null]]', TypeMismatchError),  # never written
        ('"values":[["c",1,0.5,null]]', StorageError),  # a short row
        # the text cells of the first and the last: refused alike
        ('"rows":[["c","1.5","0.5","",""]]', TypeMismatchError),
        ('"rows":[["c","1","0.5",""]]', StorageError),
    ],
)
def test_a_cell_that_is_not_its_columns_type_is_refused(tmp_path, payload, error):
    """A CRC-valid record whose cell could not have passed the gate is
    refused at replay, as an undecodable text cell is."""
    _session(tmp_path).close()
    record = '{"op":"insert","table":"t",%s,"version":3}' % payload
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(frame_record(record.encode()))
    with pytest.raises(error):
        _session(tmp_path)
