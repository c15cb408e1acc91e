"""``Table``'s key indexes against a from-scratch grouping of its rows.

A key index maps the key a row holds on some column positions to the
rows holding it, in table order, keys containing NULL left out. The BE
Plan Optimizer's residual probes one instead of scanning its uncovered
relation (``bounded/residual.py``), so an index must be exactly what
grouping ``rows`` would give, whatever wrote to the table since it was
built. ``regrouped`` below is that grouping, written out plainly; it is
the oracle.

* A state machine drives every write path — ``extend``,
  ``insert_rows``, ``take_rows``, ``delete_rows``, ``delete(predicate)``,
  ``rows =``, ``clear()`` — and a restart of an ``MmapStore`` engine
  whose WAL replay lands on a table with its indexes already built.
  After every step each built index equals the grouping, and a
  wholesale replacement has dropped them all.
* A probe and the scan it replaces keep the same rows, NULL and NaN
  keys included.
* Readers that race to build one index get equal answers.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import threading
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    BEAS,
    AccessConstraint,
    AccessSchema,
    ASCatalog,
    BEPlanOptimizer,
    ConventionalEngine,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionMode,
    Session,
    TableSchema,
)
from repro.engine.metrics import ExecutionMetrics
from repro.storage.table import Table

from tests.conftest import nan_keyed
from tests.test_sideways_join import (
    DIM_K,
    DIM_KZ,
    JOINING,
    SQL,
    _from,
    _keys,
    _pushed,
    _rows,
    _sql,
    bag,
    build_db,
    q11_shaped,
)

SCHEMA = TableSchema(
    "t", [("k", DataType.FLOAT), ("j", DataType.INT), ("v", DataType.STRING)]
)
ACCESS = AccessSchema([AccessConstraint("t", ["j"], ["k", "v"], 10_000, name="t_j")])
#: the column positions the machine builds indexes on
POSITIONS = [(0,), (1,), (0, 1), (2, 0)]


def regrouped(rows: list[tuple], positions: tuple[int, ...]) -> dict:
    """The oracle: every row under its key, in table order, no key with
    a NULL in it."""
    groups: dict = {}
    for row in rows:
        key = tuple(row[i] for i in positions)
        if any(cell is None for cell in key):
            continue
        if key not in groups:
            groups[key] = []
        groups[key].append(row)
    return groups


# small domains: duplicates, NULL in every column, NaN in the FLOAT one
# (a fresh float("nan") per row, as a caller hands it in)
_cells = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, None, "nan"]),
    st.sampled_from([0, 1, 2, None]),
    st.sampled_from(["a", "b", None]),
)
_batch = st.lists(_cells, max_size=6)


def _raw(cells) -> list[tuple]:
    return [(float("nan") if k == "nan" else k, j, v) for k, j, v in cells]


class KeyIndexMachine(RuleBasedStateMachine):
    """One table, every write path, and the indexes built on it."""

    @initialize(cells=_batch)
    def open(self, cells):
        self.table = Table(SCHEMA, _raw(cells))
        self.built: set[tuple[int, ...]] = set()
        self.store_dirs: list[str] = []

    def teardown(self):
        for directory in getattr(self, "store_dirs", ()):
            shutil.rmtree(directory, ignore_errors=True)

    def _held(self, picks: list[int]) -> list[tuple]:
        rows = self.table.rows
        return [rows[pick % len(rows)] for pick in picks] if rows else []

    # -- readers --------------------------------------------------------- #
    @rule(positions=st.sampled_from(POSITIONS))
    def build(self, positions):
        index = self.table.build_key_index(positions)
        assert self.table.key_index(positions) is index
        self.built.add(positions)

    # -- writers that keep the indexes ------------------------------------ #
    @rule(cells=_batch)
    def extend(self, cells):
        self.table.extend(self.table.admit(_raw(cells)))

    @rule(cells=_batch)
    def insert_rows(self, cells):
        self.table.insert_rows(_raw(cells))

    @rule(picks=st.lists(st.integers(0, 50), max_size=4))
    def take_rows(self, picks):
        held = self._held(picks)
        rows = self.table.rows
        if all(rows.count(row) >= count for row, count in Counter(held).items()):
            assert self.table.take_rows(held) == held

    @rule(picks=st.lists(st.integers(0, 50), max_size=4), cells=_batch)
    def delete_rows(self, picks, cells):
        # rows the table holds, and rows it may not
        self.table.delete_rows(self._held(picks) + _raw(cells))

    # -- writers that replace the rows wholesale -------------------------- #
    @rule(j=st.sampled_from([0, 1, None]))
    def delete_predicate(self, j):
        self.table.delete(lambda row: row[1] == j)
        self.built.clear()

    @rule(cells=_batch)
    def assign_rows(self, cells):
        self.table.rows = self.table.admit(_raw(cells))
        self.built.clear()

    @rule()
    def clear(self):
        self.table.clear()
        self.built.clear()

    # -- a restart: the WAL replays onto a table with indexes built ------- #
    @precondition(lambda self: len(self.store_dirs) < 2)
    @rule(cells=_batch, picks=st.lists(st.integers(0, 50), max_size=3))
    def reopen(self, cells, picks):
        directory = tempfile.mkdtemp(prefix="key-index-store-")
        self.store_dirs.append(directory)
        base, version = list(self.table.rows), self.table.version
        live = Database(name="keyed")
        live.add_table(self.table)
        with BEAS(live, ACCESS, storage="mmap", storage_dir=directory) as beas:
            beas.insert("t", _raw(cells))
            held = self._held(picks)
            if held and len(set(held)) == len(held):
                beas.delete("t", held)
        # what a restart is handed: the checkpoint's rows, indexes built
        # on them before the log is replayed
        table = Table.from_trusted_rows(SCHEMA, base)
        table.version = version
        for positions in self.built:
            table.build_key_index(positions)
        restarted = Database(name="keyed")
        restarted.add_table(table)
        with BEAS(restarted, ACCESS, storage="mmap", storage_dir=directory) as beas:
            stats = beas.storage_stats()
            assert stats is not None and stats.warm_start
        assert nan_keyed(table.rows) == nan_keyed(self.table.rows)
        assert table.version == self.table.version
        self.table = table

    # -- after every step -------------------------------------------------- #
    @invariant()
    def indexes_equal_a_regrouping(self):
        rows = self.table.rows
        for positions in POSITIONS:
            index = self.table.key_index(positions)
            assert (index is not None) == (positions in self.built), positions
            if index is None:
                continue
            assert index == regrouped(rows, positions), positions
            assert not any(None in key for key in index)
            assert all(index.values())  # no empty bucket is kept


TestKeyIndexMachine = KeyIndexMachine.TestCase
TestKeyIndexMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


# --------------------------------------------------------------------------- #
# a probe keeps what the scan keeps
# --------------------------------------------------------------------------- #
def keyed_db(l_rows, r_rows) -> Database:
    """``build_db``'s two relations, each row under a key ``i`` of its
    own: a prefix that fetches one of them whole is bag-exact, so the
    residual probing the other answers the query's bag."""
    flat = build_db(l_rows, r_rows)
    db = Database(
        DatabaseSchema(
            [
                TableSchema(
                    name,
                    [("i", DataType.INT)]
                    + [(c.name, c.dtype) for c in table.schema.columns],
                    keys=[("i",)],
                )
                for name, table in (("l", flat.table("l")), ("r", flat.table("r")))
            ]
        )
    )
    for name in ("l", "r"):
        rows = [(i,) + row for i, row in enumerate(flat.table(name))]
        db.table(name).insert_rows(rows)
    return db


def _partial(db: Database, sql: str, probed: str):
    """The partially bounded plan whose prefix fetches the relation other
    than ``probed`` whole, and whose residual probes ``probed``."""
    other = "r" if probed == "l" else "l"
    columns = db.table(other).schema.column_names
    access = AccessSchema([AccessConstraint(other, [], columns, 100, name="all")])
    optimizer = BEPlanOptimizer(ASCatalog(db, access))
    partial = optimizer.analyze(sql)
    assert partial is not None and partial.uncovered_bindings == [probed]
    return optimizer, partial


def _run(db: Database, sql: str, probed: Optional[str] = None):
    """The conventional engine's rows and metrics, or (``probed``) the
    residual's that probes that relation."""
    if probed is None:
        return ConventionalEngine(db).execute(sql).rows, ExecutionMetrics()
    optimizer, partial = _partial(db, sql, probed)
    result = optimizer.execute(partial)
    return result.rows, result.metrics


class TestProbeAgainstScan:
    @given(_rows, _rows, _from, _keys, _pushed)
    @settings(max_examples=120, deadline=None)
    def test_row_bags_null_and_nan_keys_included(
        self, l_rows, r_rows, from_items, keys, pushed
    ):
        db = keyed_db(l_rows, r_rows)
        sql = _sql(from_items, keys, pushed)
        scanned, _ = _run(db, sql)
        for probed in ("l", "r"):
            first, building = _run(db, sql, probed)
            again, probing = _run(db, sql, probed)
            assert bag(first) == bag(again) == bag(scanned)
            assert nan_keyed(first) == nan_keyed(again)
            # the request that builds counts every row, as the scan does; a
            # later one the rows of the buckets it read (each with the
            # prefix's rows)
            (prefix,) = [
                op for op in building.operations if "__bounded__ as" in op.label
            ]
            assert building.tuples_scanned == prefix.tuples_in + len(db.table(probed))
            assert probing.tuples_scanned <= building.tuples_scanned
            (probe,) = [op for op in probing.operations if "⋉" in op.label]
            assert probe.label.startswith("probe(")
            assert "index built" not in probe.label

    @pytest.mark.parametrize("indexed", ["l", "r"])
    def test_the_indexed_scan_is_probed_whichever_side_is_smaller(self, indexed):
        """The uncovered relation is probed even where a hash join's
        estimates would build on it, and the listing says so."""
        db = keyed_db([(float(i % 5), i, i) for i in range(40)], [(1.0, 0, 7)])
        sql = _sql("l, r", "l.k = r.k", None)
        scanned, _ = _run(db, sql)
        for _ in range(2):  # the build, then a probe of the built index
            probed, metrics = _run(db, sql, indexed)
            assert bag(probed) == bag(scanned) and len(probed) == 8
            (probe,) = [op for op in metrics.operations if "⋉" in op.label]
            assert probe.label.startswith(f"probe({indexed} as {indexed}")
        _, partial = _partial(db, sql, indexed)
        listing = partial.residual.explain(partial.cq)
        assert f"Probe {indexed} AS {indexed} on (k)" in listing

    @given(_rows, _rows, _from, _keys, _pushed)
    @settings(max_examples=40, deadline=None)
    def test_order_by_is_list_equal(self, l_rows, r_rows, from_items, keys, pushed):
        db = keyed_db(l_rows, r_rows)
        sql = _sql(from_items, keys, pushed, tail=" ORDER BY a, b")
        scanned, _ = _run(db, sql)
        for indexed in ("l", "r"):
            probed, _ = _run(db, sql, indexed)
            assert probed == scanned

    @given(
        st.lists(st.sampled_from([0.0, 1.0, None, "nan"]), max_size=12),
        st.lists(st.sampled_from([0.0, 1.0, "nan", "fresh nan"]), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_nan_matches_as_the_scans_membership_test_does(self, cells, wanted):
        """The table holds one canonical NaN object; a prefix key holding
        it meets every NaN row, one holding another NaN object meets
        none — in the probe step exactly as in a hash join's
        ``build.__contains__``. The prefix's rows are handed to the
        residual directly: no table holds a NaN but the canonical one."""
        db = Database(
            DatabaseSchema(
                [
                    TableSchema("n", [("k", DataType.FLOAT), ("i", DataType.INT)]),
                    TableSchema("p", [("k", DataType.FLOAT)], keys=[("k",)]),
                ]
            )
        )
        db.table("n").insert_rows(
            [(float("nan") if k == "nan" else k, i) for i, k in enumerate(cells)]
        )
        table = db.table("n")
        stored_nan = next((row[0] for row in table.rows if row[0] != row[0]), None)
        build = {}
        for value in wanted:
            if value == "nan":
                key = (stored_nan if stored_nan is not None else math.nan,)
            elif value == "fresh nan":
                key = (float("nan"),)
            else:
                key = (value,)
            build[key] = [key]
        access = AccessSchema([AccessConstraint("p", [], ["k"], 100, name="p_all")])
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        partial = optimizer.analyze("SELECT n.i FROM n, p WHERE n.k = p.k")
        kept = [row[1] for row in table.rows if (row[0],) in build]
        for _ in range(2):  # the build, then a probe of the built index
            probed = partial.residual.run(list(build), (), db, ExecutionMetrics())
            assert Counter(row[0] for row in probed.rows) == Counter(kept)


# --------------------------------------------------------------------------- #
# readers racing to build one index
# --------------------------------------------------------------------------- #
def test_racing_readers_build_one_index_and_agree(monkeypatch):
    """Four readers of a shared Session all find no index, all build one
    (each under its read hold only) and publish it; their answers are
    equal, and what stays published is exact."""
    db = q11_shaped(3_000)
    big = db.table("big")
    expected = sorted(ConventionalEngine(db).execute(SQL).rows)
    readers = 4
    barrier = threading.Barrier(readers)
    looked = threading.local()
    key_index = Table.key_index

    def racing(self, positions):
        index = key_index(self, positions)
        if self is big and getattr(looked, "first", False):
            looked.first = False
            barrier.wait(timeout=30)  # nobody builds before all have looked
        return index

    monkeypatch.setattr(Table, "key_index", racing)
    answers: list = []
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Session(db, AccessSchema([DIM_KZ, DIM_K])) as session:

            def reader():
                looked.first = True
                try:
                    result = session.run(SQL, use_result_cache=False)
                    (probe,) = [
                        op.label for op in result.metrics.operations if "⋉" in op.label
                    ]
                    answers.append((result.mode, sorted(result.rows), probe))
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            pool = [threading.Thread(target=reader) for _ in range(readers)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
            assert not errors, errors
            built = "probe(big as b; index built) ⋉ __bounded__[k]"
            assert answers == [(ExecutionMode.PARTIAL, expected, built)] * readers
            after = session.run(SQL, use_result_cache=False)
        assert sorted(after.rows) == expected
        positions = (big.schema.position("k"),)
        assert key_index(big, positions) == regrouped(big.rows, positions)
        assert after.metrics.tuples_scanned == len(JOINING) + 6
    finally:
        sys.setswitchinterval(interval)
