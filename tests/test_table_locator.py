"""Table's row locator against the O(rows) scan it replaced.

``ReferenceTable`` below is ``Table`` as it stood before the locator
(PR 13): ``delete_rows`` walks every row through a ``Counter`` probe. It
survives only here, as the oracle. After every step of a random
sequence the live table's ``rows`` must be *list-equal* to the
reference's (same rows, same order), ``version`` must be equal, and
every call must have returned the same ``removed`` list.

The second half checks what the locator is for: a delete batch costs
the batch, not the table, live and through WAL replay.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.errors import MaintenanceError, StorageError
from repro.maintenance import MaintenanceManager
from repro.storage.codec import canonical_key
from repro.storage.table import Table


# --------------------------------------------------------------------------- #
# the oracle: Table's mutators at the parent commit
# --------------------------------------------------------------------------- #
class ReferenceTable:
    def __init__(self):
        self.rows: list[tuple] = []
        self.version = 0

    def insert(self, row):
        self.rows.append(canonical_key(row))
        self.version += 1

    def delete(self, predicate):
        kept, removed = [], []
        for row in self.rows:
            (removed if predicate(row) else kept).append(row)
        self.rows = kept
        if removed:
            self.version += 1
        return removed

    def delete_rows(self, rows):
        wanted = Counter(canonical_key(r) for r in rows)
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
        return removed

    def clear(self):
        self.rows.clear()
        self.version += 1


# --------------------------------------------------------------------------- #
# random sequences over rows with duplicates, NULLs and NaNs
# --------------------------------------------------------------------------- #
SCHEMA = TableSchema(
    "t",
    [("k", DataType.STRING), ("v", DataType.INT), ("w", DataType.FLOAT)],
)

# small domains, so duplicates and repeated deletes of one row are common;
# float("nan") is a fresh object per draw, as it is for a real caller
cells = st.tuples(
    st.sampled_from(["a", "b", None]),
    st.sampled_from([0, 1, None]),
    st.sampled_from([0.0, 1.5, None, "nan"]),
)
rows_ = cells.map(lambda c: (c[0], c[1], float("nan") if c[2] == "nan" else c[2]))
batches = st.lists(rows_, max_size=6)

steps = st.one_of(
    st.tuples(st.just("insert"), batches),
    # rows named outright (often absent, often more than are present) ...
    st.tuples(st.just("delete_rows"), batches),
    # ... and rows picked out of the table by position
    st.tuples(st.just("delete_held"), st.lists(st.integers(0, 200), max_size=6)),
    st.tuples(st.just("delete"), st.sampled_from(["a", "b", None])),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("reassign"), batches),
)


def _held(table, picks: list[int]) -> list[tuple]:
    """Rows of ``table`` picked by (wrapped) position."""
    return [table.rows[i % len(table.rows)] for i in picks if table.rows]


def _apply(table, kind, argument):
    if kind == "insert":
        for row in argument:
            table.insert(row)
    elif kind == "delete_rows":
        return table.delete_rows(argument)
    elif kind == "delete_held":
        return table.delete_rows(_held(table, argument))
    elif kind == "delete":
        return table.delete(lambda row: row[0] == argument)
    elif kind == "clear":
        table.clear()
    elif kind == "reassign":
        # what perf/harness.clone_database and the benches' bulk loads do:
        # rows that never went through insert (so NaNs stay uncanonical)
        table.rows = list(argument)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=30))
def test_table_matches_the_scan_after_every_step(sequence):
    live, reference = Table(SCHEMA), ReferenceTable()
    for kind, argument in sequence:
        removed = _apply(live, kind, argument)
        expected = _apply(reference, kind, argument)
        assert removed == expected, (kind, argument)
        assert live.rows == reference.rows, (kind, argument)
        assert live.version == reference.version, (kind, argument)


def test_delete_rows_is_bag_semantic():
    table = Table(SCHEMA, [("a", 1, 0.0), ("b", 1, 0.0), ("a", 1, 0.0), ("a", 1, 0.0)])
    # two of the three occurrences go: the oldest ones, order kept
    assert table.delete_rows([("a", 1, 0.0), ("a", 1, 0.0)]) == [("a", 1, 0.0)] * 2
    assert table.rows == [("b", 1, 0.0), ("a", 1, 0.0)]
    # asked for more than are held: strict refuses and touches nothing ...
    version = table.version
    with pytest.raises(StorageError):
        table.delete_rows([("b", 1, 0.0), ("a", 1, 0.0), ("a", 1, 0.0)], strict=True)
    assert table.rows == [("b", 1, 0.0), ("a", 1, 0.0)] and table.version == version
    # ... otherwise what is there goes, nothing else
    assert table.delete_rows([("a", 1, 0.0)] * 3) == [("a", 1, 0.0)]
    assert table.rows == [("b", 1, 0.0)] and table.version == version + 1
    assert table.delete_rows([("a", 1, 0.0)]) == []
    assert table.version == version + 1  # nothing removed: no bump


def test_in_place_edit_behind_the_locator_is_noticed():
    """Outside code must not edit ``rows`` in place, but when it does the
    id column no longer lines up — the locator is rebuilt, never trusted
    into deleting a neighbour."""
    table = Table(SCHEMA, [("a", i, None) for i in range(4)])
    table.delete_rows([("a", 0, None)])  # builds the locator
    table.rows.append(("b", 9, None))
    table.insert(("a", 7, None))
    assert table.delete_rows([("a", 7, None)]) == [("a", 7, None)]
    assert table.rows == [("a", 1, None), ("a", 2, None), ("a", 3, None), ("b", 9, None)]
    table.rows.append(("b", 10, None))
    table.insert_rows([("c", 1, None), ("c", 2, None)])  # a batch on top of it
    assert table.delete_rows([("c", 2, None), ("b", 9, None)]) == [("b", 9, None), ("c", 2, None)]
    assert table.rows == [("a", 1, None), ("a", 2, None), ("a", 3, None), ("b", 10, None), ("c", 1, None)]


def test_locator_is_lazy():
    table = Table(SCHEMA, [("a", 1, None)])
    table.insert(("b", 2, None))
    table.delete(lambda row: row[0] == "b")
    assert table._locator is None  # only tables that saw delete_rows pay
    table.delete_rows([("a", 1, None)])
    assert table._locator is not None


# --------------------------------------------------------------------------- #
# the same sequences through MaintenanceManager: indices stay exact
# --------------------------------------------------------------------------- #
def _catalog() -> ASCatalog:
    database = Database(DatabaseSchema([SCHEMA], name="locator"))
    schema = AccessSchema(
        [
            AccessConstraint("t", ["k"], ["v"], 2, name="k_v"),
            AccessConstraint("t", ["k", "v"], ["w"], 3, name="kv_w"),
        ]
    )
    return ASCatalog(database, schema)


maintenance_steps = st.one_of(
    st.tuples(st.just("insert"), batches),
    st.tuples(st.just("delete_rows"), batches),
    st.tuples(st.just("delete_held"), st.lists(st.integers(0, 200), max_size=6)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(maintenance_steps, max_size=25))
def test_maintenance_keeps_indices_equal_to_a_rebuild(sequence):
    catalog = _catalog()
    manager = MaintenanceManager(catalog)
    table = catalog.database.table("t")
    reference = ReferenceTable()
    for kind, argument in sequence:
        before, version = list(table.rows), table.version
        if kind == "delete_held":
            kind, argument = "delete_rows", _held(table, argument)
        try:
            if kind == "insert":
                manager.insert("t", argument)
                _apply(reference, "insert", argument)
            else:
                batch = manager.delete("t", argument)
                assert batch.deleted == len(argument)
                _apply(reference, "delete_rows", argument)
        except MaintenanceError:
            # refused: a bound violation (rows rolled back, version moved)
            # or a row that is not there (nothing moved at all)
            assert table.rows == before
            if kind == "delete_rows":
                assert table.version == version
            reference.version = table.version
        assert table.rows == reference.rows
        assert table.version == reference.version
        for constraint in catalog.schema:
            rebuilt = AccessIndex(constraint, table)
            assert catalog.index_for(constraint).snapshot() == rebuilt.snapshot()


# --------------------------------------------------------------------------- #
# cost: the batch, not the table
# --------------------------------------------------------------------------- #
WIDE = TableSchema("wide", [("id", DataType.INT), ("k", DataType.STRING)])


def _wide_rows(size: int) -> list[tuple]:
    return [(i, f"k{i % 97}") for i in range(size)]


@pytest.mark.parametrize("holes", [1, 400])
def test_scattered_batches_match_the_scan(holes):
    rng = random.Random(holes)
    rows = _wide_rows(300) * 3  # every row three times over
    live, reference = Table.from_trusted_rows(WIDE, list(rows)), ReferenceTable()
    reference.rows = list(rows)
    for _ in range(2):
        batch = rng.sample(live.rows, holes)
        assert live.delete_rows(batch) == reference.delete_rows(batch)
        assert live.rows == reference.rows
        assert live.version == reference.version


def _best_of_5(delete_rows, batches) -> float:
    best = float("inf")
    for batch in batches:
        start = time.perf_counter()
        removed = delete_rows(batch)
        best = min(best, time.perf_counter() - start)
        assert len(removed) == len(batch)
    return best


def _recent_batch_cost(size: int) -> float:
    """One 16-row ``delete_rows`` of the table's most recent rows — what a
    maintenance stream does — on a ``size``-row table whose locator
    exists (as it does from a table's second delete on)."""
    table = Table.from_trusted_rows(WIDE, _wide_rows(size))
    table.delete_rows([(0, "k0")])
    batches = [[(-5 * n - i, "new") for i in range(16)] for n in range(5)]
    for batch in batches:
        for row in batch:
            table.insert(row)
    return _best_of_5(table.delete_rows, reversed(batches))


def test_delete_cost_does_not_follow_table_size():
    small, large = _recent_batch_cost(2_000), _recent_batch_cost(200_000)
    # the scan's ratio is the tables': about 100x
    assert large <= 5 * small, (
        f"2k rows: {small * 1e6:.0f} us, 200k rows: {large * 1e6:.0f} us"
    )


def test_oldest_rows_still_beat_the_scan():
    """The worst case: every deleted row sits at the head, so all 200k
    rows behind it move — but as one C-level memmove per row, not a
    Python-level probe per row of the table."""
    rows = _wide_rows(200_000)
    batches = [rows[16 * n : 16 * n + 16] for n in range(1, 6)]
    live = Table.from_trusted_rows(WIDE, list(rows))
    live.delete_rows(rows[:1])
    reference = ReferenceTable()
    reference.rows = rows[1:]
    located = _best_of_5(live.delete_rows, batches)
    scanned = _best_of_5(reference.delete_rows, batches)
    assert live.rows == reference.rows
    assert 3 * located <= scanned, (
        f"locator: {located * 1e6:.0f} us, scan: {scanned * 1e6:.0f} us"
    )


def test_200_logged_delete_batches_replay_warm(tmp_path):
    """Warm restart replays every delete batch through the same apply
    function as live maintenance: tables, versions and indices come back
    equal to the live session's."""
    def build() -> Database:
        database = Database(DatabaseSchema([WIDE], name="replay"))
        table = database.table("wide")
        for i in range(5_000):
            table.insert((i, f"k{i % 500}"))
        return database

    schema = AccessSchema([AccessConstraint("wide", ["k"], ["id"], 40, name="k_id")])
    options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))

    live = Session(build(), schema, options=options)
    for batch in range(200):
        first = batch * 20
        live.delete("wide", [(i, f"k{i % 500}") for i in range(first, first + 8)])
        live.insert("wide", [(10_000 + batch, f"k{batch % 500}")])
    table = live.database.table("wide")
    rows, version = list(table.rows), table.version
    constraint = live.beas.catalog.schema.get("k_id")
    snapshot = live.beas.catalog.index_for(constraint).snapshot()
    live.close()

    recovered = Session(build(), schema, options=options)
    try:
        storage = recovered.stats().storage
        assert storage.warm_start, "the store fell back to a cold rebuild"
        assert storage.wal_records_replayed == 400
        table = recovered.database.table("wide")
        assert table.rows == rows
        assert table.version == version
        constraint = recovered.beas.catalog.schema.get("k_id")
        assert recovered.beas.catalog.index_for(constraint).snapshot() == snapshot
        assert snapshot == AccessIndex(constraint, table).snapshot()
    finally:
        recovered.close()
