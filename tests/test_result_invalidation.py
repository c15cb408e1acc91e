"""Exact result-cache invalidation from the bounded read set.

A covered query's bounded plan touches D only through ``fetch(X = key)``,
so its answer is a function of the buckets it fetched; the serving layer
keeps it until a write changes the distinct-Y set of one of them
(``docs/invariants.md``, "Result-cache validity"). Five families:

1. **Model-based** — a hypothesis state machine over ``Session`` at
   default options, ``executor="columnar"`` and ``storage="mmap"`` (with
   a close -> reopen step, after which the result cache starts empty):
   reads, prepared binds, inserts, deletes, refused and bound-widening
   inserts, writes around the serving layer, register / unregister.
   After every read the rows (as a bag), the ``tuples_fetched`` of a miss
   and the plausibility of a cache hit are checked against
   ``tests/reference_evaluator.py`` over the model's rows at the version
   vector the answer reports.
2. **Count guards** — which cached answers a write leaves and drops.
3. **Hygiene** — the three filing maps never dangle.
4. **What is filed coarse** — PARTIAL, pool and fleet answers.
5. **Threads** — 3 writers, 5 readers, every answer checked at the
   versions it reports.
"""

from __future__ import annotations

import gc
import random
import shutil
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.serving.cache as cache_module
from repro import (
    BEAS,
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
from repro.errors import MaintenanceError
from repro.maintenance.incremental import MaintenanceManager
from repro.serving.cache import ResultCache, result_size
from repro.serving.server import PARSE_CACHE_ENTRIES
from repro.workloads.tlc import (
    generate_tlc,
    query_by_name,
    tlc_access_schema,
    tlc_queries,
)

from tests.reference_evaluator import reference_execute

NAN = float("nan")

# --------------------------------------------------------------------------- #
# the setting: Example 1 plus an id-bearing constraint on call (a copy of
# a row under a fresh call_id changes psi6 and not psi1) and a relation
# keyed by a FLOAT (NaN- and NULL-bearing keys)
# --------------------------------------------------------------------------- #
SCHEMA = DatabaseSchema(
    [
        TableSchema(
            "call",
            [
                ("call_id", DataType.INT),
                ("pnum", DataType.STRING),
                ("recnum", DataType.STRING),
                ("date", DataType.DATE),
                ("region", DataType.STRING),
            ],
            keys=[("call_id",)],
        ),
        TableSchema(
            "package",
            [
                ("pkg_id", DataType.INT),
                ("pnum", DataType.STRING),
                ("pid", DataType.STRING),
                ("year", DataType.INT),
            ],
            keys=[("pkg_id",)],
        ),
        TableSchema(
            "business",
            [
                ("pnum", DataType.STRING),
                ("type", DataType.STRING),
                ("region", DataType.STRING),
            ],
        ),
        TableSchema(
            "reading",
            [
                ("rid", DataType.INT),
                ("level", DataType.FLOAT),
                ("sensor", DataType.STRING),
            ],
            keys=[("rid",)],
        ),
    ],
    name="readsets",
)

PNUMS = ["100", "101", "102"]
DATES = ["2016-06-01", "2016-06-02"]
RECNUMS = ["555", "556", "557"]
REGIONS = ["north", "south"]
TYPES = ["bank", "shop"]
ZONES = ["east", "west"]
PIDS = ["c0", "c1"]
YEARS = [2015, 2016]
LEVELS = [1.5, 2.0]
SENSORS = ["s1", "s2", "s3"]


def constraints() -> list[AccessConstraint]:
    return [
        AccessConstraint("call", ["pnum", "date"], ["recnum", "region"], 4, name="psi1"),
        AccessConstraint("call", ["pnum", "date"], ["call_id", "region"], 500, name="psi6"),
        AccessConstraint("package", ["pnum", "year"], ["pid"], 3, name="psi2"),
        AccessConstraint("business", ["type", "region"], ["pnum"], 8, name="psi3"),
        AccessConstraint("reading", ["level"], ["sensor"], 3, name="psi_level"),
    ]


INITIAL = {
    "call": [
        (1, "100", "555", "2016-06-01", "north"),
        (2, "100", "556", "2016-06-01", "south"),
        (3, "101", "557", "2016-06-01", "north"),
        (4, "100", "555", "2016-06-02", "south"),
        (5, "100", "555", "2016-06-01", "north"),  # a second support of ('555', 'north')
        (6, None, "556", "2016-06-02", "north"),  # a NULL-bearing psi1 / psi6 key
    ],
    "package": [
        (1, "100", "c0", 2016),
        (2, "101", "c1", 2016),
        (3, "100", "c0", 2015),
    ],
    "business": [
        ("100", "bank", "east"),
        ("101", "bank", "east"),
        ("102", "shop", "west"),
    ],
    "reading": [
        (1, 1.5, "s1"),
        (2, NAN, "s2"),
        (3, None, "s3"),
    ],
}


def build_database(rows: dict[str, list[tuple]], versions=None) -> Database:
    database = Database(SCHEMA)
    for name, table_rows in rows.items():
        table = database.table(name)
        table.insert_rows(table_rows)
        if versions is not None:
            table.version = versions[name]
    return database


# the read templates: name -> (SQL with str.format fields, slot per field)
TEMPLATES = {
    # psi1 only: blind to a copy of a row under a fresh call_id
    "who": (
        "SELECT DISTINCT recnum, region FROM call "
        "WHERE pnum = '{p}' AND date = '{d}'",
        {"p": "call.pnum", "d": "call.date"},
    ),
    # psi6: sees every call_id
    "ids": (
        "SELECT call_id, region FROM call WHERE pnum = '{p}' AND date = '{d}'",
        {"p": "call.pnum", "d": "call.date"},
    ),
    # two tables, both fetched
    "join": (
        "SELECT DISTINCT call.region FROM call, business "
        "WHERE business.type = '{t}' AND business.region = '{z}' "
        "AND business.pnum = call.pnum AND call.date = '{d}'",
        {"t": "business.type", "z": "business.region", "d": "call.date"},
    ),
    # not covered: business fetched (psi3), package scanned
    "partial": (
        "SELECT DISTINCT p.pid FROM package p, business b "
        "WHERE b.type = '{t}' AND b.region = '{z}' AND p.pnum = b.pnum",
        {"t": "b.type", "z": "b.region"},
    ),
    # no constraint on recnum: conventional
    "scan": (
        "SELECT DISTINCT region FROM call WHERE recnum = '{x}'",
        {"x": "call.recnum"},
    ),
    "packages": (
        "SELECT DISTINCT pid FROM package WHERE pnum = '{p}' AND year = {y}",
        {"p": "package.pnum", "y": "package.year"},
    ),
    # a FLOAT key: NaN never matches, whatever buckets NaN rows keep
    "level": (
        "SELECT DISTINCT sensor FROM reading WHERE level = {l}",
        {"l": "reading.level"},
    ),
}
DOMAINS = {
    "p": PNUMS, "d": DATES, "t": TYPES, "z": ZONES, "x": RECNUMS,
    "y": YEARS, "l": LEVELS,
}  # fmt: skip
DEFAULTS = {name: values[0] for name, values in DOMAINS.items()}


def render(template: str, values: dict) -> str:
    return TEMPLATES[template][0].format(**{**DEFAULTS, **values})


@st.composite
def reads(draw):
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    fields = TEMPLATES[template][1]
    return template, {name: draw(st.sampled_from(DOMAINS[name])) for name in fields}


def call_rows(ids):
    return st.lists(
        st.tuples(
            st.sampled_from(PNUMS + [None]),
            st.sampled_from(RECNUMS),
            # an un-normalised spelling is stored (and keyed) normalised
            st.sampled_from(DATES + ["2016-6-1", None]),
            st.sampled_from(REGIONS),
        ),
        min_size=1,
        max_size=3,
    ).map(lambda rows: [(next(ids),) + row for row in rows])


def other_rows(table: str, ids):
    if table == "package":
        cells = st.tuples(
            st.sampled_from(PNUMS), st.sampled_from(PIDS), st.sampled_from(YEARS)
        )
        return st.lists(cells, min_size=1, max_size=2).map(
            lambda rows: [(next(ids),) + row for row in rows]
        )
    if table == "business":
        return st.lists(
            st.tuples(
                st.sampled_from(PNUMS), st.sampled_from(TYPES), st.sampled_from(ZONES)
            ),
            min_size=1,
            max_size=2,
        )
    cells = st.tuples(st.sampled_from(LEVELS + [None, "nan"]), st.sampled_from(SENSORS))
    return st.lists(cells, min_size=1, max_size=2).map(
        lambda rows: [
            (next(ids), NAN if level == "nan" else level, sensor)
            for level, sensor in rows
        ]
    )


class InvalidationMachine(RuleBasedStateMachine):
    """One ``Session`` and a model of its tables, stepped together."""

    options: dict = {}

    def __init__(self):
        super().__init__()
        self.store_dir = None
        self.session = None
        self.read_log = []

    @initialize()
    def open(self):
        self._ids = iter(range(1000, 10**9))
        self.model = {name: list(rows) for name, rows in INITIAL.items()}
        options = dict(self.options)
        if options.get("storage") == "mmap":
            self.store_dir = tempfile.mkdtemp(prefix="beas-readsets-")
            options["storage_dir"] = self.store_dir
        self._options = ExecutionOptions(**options)
        self.session = Session(
            build_database(self.model), AccessSchema(constraints()), options=self._options
        )
        self._note_checkpoint()
        #: reads of each key since the last access-schema change (which
        #: flushes every cached answer)
        self.sightings: Counter = Counter()
        self.read_log: list[tuple[str, dict]] = []
        self.handles = {
            name: self.session.query(render(name, {})) for name in TEMPLATES
        }

    def teardown(self):
        if self.session is not None:
            self.session.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # the model
    # ------------------------------------------------------------------ #
    def _note_checkpoint(self):
        """What a reopen must be handed: the rows, versions and access
        schema the store last checkpointed — at open and at every
        register / unregister (the WAL replays the rest, a widened bound
        included)."""
        database = self.session.database
        self.base = (
            {name: list(rows) for name, rows in self.model.items()},
            {name: database.table(name).version for name in self.model},
            list(self.session.beas.catalog.schema),
        )

    def _stored(self, table: str, rows):
        """The rows as the table stores them (DATE cells normalised)."""
        return Database(SCHEMA).table(table).admit(rows)

    def _oracle(self, template: str, values: dict) -> list[tuple]:
        if any(value != value for value in values.values()):
            return []  # an equality with NaN holds for no row
        return reference_execute(build_database(self.model), render(template, values))

    def _check(self, template, values, result, *, use_cache=True):
        expected = self._oracle(template, values)
        assert Counter(result.rows) == Counter(expected), (template, values)
        database = self.session.database
        assert result.metrics.table_versions == {
            name: database.table(name).version
            for name in result.metrics.table_versions
        }
        key = (template, tuple(sorted(values.items(), key=str)))
        if result.metrics.served_from_cache:
            assert use_cache
            assert result.metrics.tuples_fetched == 0
            # a BOUNDED answer is admitted on its second sighting; a
            # PARTIAL or CONVENTIONAL one, whose recompute scans, on its first
            needed = 2 if result.mode is ExecutionMode.BOUNDED else 1
            assert self.sightings[key] >= needed, key
        elif result.mode in (ExecutionMode.BOUNDED, ExecutionMode.PARTIAL):
            assert result.metrics.tuples_fetched == self._scratch_fetched(
                template, values
            )
        if use_cache:
            self.sightings[key] += 1

    def _scratch_fetched(self, template: str, values: dict) -> int:
        """``tuples_fetched`` of the same read on indices built from
        scratch over the model's rows: what the incrementally maintained
        ones must hand a miss."""
        if any(value != value for value in values.values()):
            return 0
        schema = AccessSchema(list(self.session.beas.catalog.schema))
        scratch = BEAS(
            build_database(self.model), schema,
            storage="memory", parallelism=1, replicas=1,
        )  # fmt: skip
        with scratch:
            fresh = scratch.session().run(
                render(template, values), use_result_cache=False, routing="static"
            )
        return fresh.metrics.tuples_fetched

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @rule(read=reads(), times=st.integers(1, 3))
    def adhoc_read(self, read, times):
        """A key read up to three times running: a BOUNDED answer is
        declined, admitted, then a hit; a PARTIAL or CONVENTIONAL one is
        admitted at once, then a hit."""
        template, values = read
        self.read_log.append(read)
        for repeat in range(times):
            result = self.session.run(render(template, values))
            self._check(template, values, result)
            if repeat >= (2 if result.mode is ExecutionMode.BOUNDED else 1):
                assert result.metrics.served_from_cache, (template, values)

    def _reread(self):
        """The last few keys read, again: whatever the write just made
        left cached must still be right."""
        for template, values in self.read_log[-4:]:
            self._check(template, values, self.session.run(render(template, values)))

    @rule(read=reads())
    def uncached_read(self, read):
        template, values = read
        result = self.session.run(render(template, values), use_result_cache=False)
        self._check(template, values, result, use_cache=False)

    @rule(read=reads(), nan=st.booleans())
    def prepared_bind(self, read, nan):
        template, values = read
        if nan and template == "level":
            values = {"l": NAN}
        slots = TEMPLATES[template][1]
        params = {slots[name]: value for name, value in values.items()}
        self._check(template, values, self.handles[template].bind(params).run())

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def _insert(self, table, rows, **how):
        try:
            batch = self.session.insert(table, rows, **how)
        except MaintenanceError:
            return None
        self.model[table].extend(self._stored(table, rows))
        if batch.adjusted_constraints:
            self.sightings.clear()  # a widened bound flushed every answer
        self._reread()
        return batch

    @rule(data=st.data())
    def insert_calls(self, data):
        self._insert("call", data.draw(call_rows(self._ids)))

    @rule(data=st.data(), table=st.sampled_from(["package", "business", "reading"]))
    def insert_elsewhere(self, data, table):
        self._insert(table, data.draw(other_rows(table, self._ids)))

    @rule(table=st.sampled_from(sorted(INITIAL)), picks=st.lists(st.integers(0, 50), min_size=1, max_size=3))
    def delete_held(self, table, picks):
        held = self.model[table]
        if not held:
            return
        victims = [held[i % len(held)] for i in sorted({i % len(held) for i in picks})]
        assert self.session.delete(table, victims).deleted == len(victims)
        for row in victims:
            # the engine removes the oldest equal occurrence (a duplicated
            # business row): so does the model, or a reopen's checkpoint
            # fingerprint (first and last row) sees another order. A NaN
            # row is equal to itself only (every row with a NaN has an id)
            held.remove(row)
        self._reread()

    def _overflow(self):
        """A batch that takes one psi1 bucket past its (live) bound."""
        bound = self.session.beas.catalog.schema.get("psi1").n
        return [
            (next(self._ids), "102", f"r{i}", "2016-06-02", "north")
            for i in range(bound + 1)
        ]

    @rule()
    def rejected_insert(self):
        version = self.session.database.table("call").version
        with pytest.raises(MaintenanceError):
            self.session.insert("call", self._overflow())
        assert self.session.database.table("call").version > version
        self._reread()

    # each one doubles psi1's bound: a few are all psi6's leaves room for
    @precondition(lambda self: self.session.beas.catalog.schema.get("psi1").n < 16)
    @rule()
    def adjust_insert(self):
        generation = self.session.stats().schema_generation
        batch = self._insert("call", self._overflow(), adjust_bounds=True)
        assert batch is not None and "psi1" in batch.adjusted_constraints
        assert self.session.stats().schema_generation > generation

    @rule(data=st.data())
    def write_below_the_engine(self, data):
        """Maintenance on the catalog itself: indices and
        ``Table.version`` move, the engine is not told. (The store is,
        so that a reopen replays the batch.)"""
        rows = data.draw(call_rows(self._ids))
        beas = self.session.beas
        try:
            _, stored = MaintenanceManager(beas.catalog).insert_returning("call", rows)
        except MaintenanceError:
            return
        if beas.store is not None:
            beas.store.log_batch("insert", beas.database.table("call"), stored)
        self.model["call"].extend(self._stored("call", rows))
        self._reread()

    # ------------------------------------------------------------------ #
    # the access schema
    # ------------------------------------------------------------------ #
    @rule(name=st.sampled_from(["psi6", "psi2"]))
    def toggle_constraint(self, name):
        schema = self.session.beas.catalog.schema
        if name in {constraint.name for constraint in schema}:
            self.session.unregister(name)
        else:
            (constraint,) = [c for c in constraints() if c.name == name]
            self.session.register(constraint, validate=False)
        self.sightings.clear()
        self._note_checkpoint()
        self._reread()

    # ------------------------------------------------------------------ #
    # a restart (mmap only)
    # ------------------------------------------------------------------ #
    @precondition(lambda self: self.store_dir is not None)
    @rule()
    def reopen(self):
        generation = self.session.stats().schema_generation
        self.session.close()
        rows, versions, checkpointed = self.base
        self.session = Session(
            build_database(rows, versions),
            AccessSchema(checkpointed),
            options=self._options,
        )
        stats = self.session.stats()
        assert stats.storage.warm_start
        assert stats.schema_generation == generation
        # a cached answer is an entry of this process: nothing survives
        # the restart, and every key needs two sightings again
        assert not self.session.beas.results.entries()
        self.sightings.clear()
        self.handles = {
            name: self.session.query(render(name, {})) for name in TEMPLATES
        }
        self._reread()

    # ------------------------------------------------------------------ #
    @invariant()
    def tables_match_the_model(self):
        if self.session is None:
            return
        for name, rows in self.model.items():
            live = self.session.database.table(name).rows
            assert Counter(map(repr, live)) == Counter(map(repr, rows)), name

    @invariant()
    def filing_never_dangles(self):
        if self.session is not None:
            assert_filing_is_tight(self.session.beas.results)


def assert_filing_is_tight(results: ResultCache) -> None:
    """Every key in the three filing maps is a live entry, filed where
    its entry says, and the filed-key count is the sum of the live
    entries' read-set sizes."""
    live = dict(results.entries())
    for filing, attribute in (
        (results._by_table, "tables"),
        (results._coarse, "coarse_tables"),
        (results._by_key, "read_keys"),
    ):
        for name, keys in filing.items():
            assert keys, f"empty filing left under {name!r}"
            for key in keys:
                assert key in live, f"{key!r} filed under {name!r} is not cached"
                assert name in getattr(live[key], attribute)
        for key, entry in live.items():
            for name in getattr(entry, attribute):
                assert key in filing[name]
    filed = sum(len(entry.read_keys) for entry in live.values())
    assert results.snapshot()[1]["result_read_keys"] == filed
    assert sum(len(keys) for keys in results._by_key.values()) == filed


def machine(name: str, **options):
    case = type(name, (InvalidationMachine,), {"options": options}).TestCase
    case.settings = settings(
        max_examples=60, stateful_step_count=40, deadline=None
    )
    return case


TestDefaultOptions = machine("DefaultOptions")
TestColumnar = machine("Columnar", executor="columnar")
TestMmap = machine("Mmap", storage="mmap")


# --------------------------------------------------------------------------- #
# (2) count guards: what a write leaves and what it drops
# --------------------------------------------------------------------------- #
@pytest.fixture
def tlc_session():
    dataset = generate_tlc(1, 42)
    database = Database(dataset.database.schema, name=dataset.database.name)
    for table in dataset.database:
        database.table(table.schema.name).rows = list(table.rows)
    # pinned in-process: a pool or fleet answer has no read set (part 4)
    options = ExecutionOptions(parallelism=1, replicas=1, routing="static")
    with Session(database, tlc_access_schema(), options=options) as session:
        yield session, dataset.params


def _cached(session, sql: str) -> bool:
    return session.run(sql).metrics.served_from_cache


def _warm(session, *queries: str) -> None:
    for sql in queries:
        session.run(sql)
        session.run(sql)
        assert _cached(session, sql)


def test_a_copied_call_drops_the_psi6_answer_and_nothing_else(tlc_session, monkeypatch):
    session, params = tlc_session
    call = session.database.table("call")
    position = {name: i for i, name in enumerate(call.schema.column_names)}
    source = next(
        row for row in call.rows
        if row[position["pnum"]] == params.p0 and row[position["date"]] == params.d0
    )  # fmt: skip
    other = next(
        row for row in call.rows
        if (row[position["pnum"]], row[position["date"]]) != (params.p0, params.d0)
    )  # fmt: skip
    q2 = query_by_name(params, "Q2").sql  # psi1
    q6 = query_by_name(params, "Q6").sql  # psi1
    q7 = query_by_name(params, "Q7").sql  # psi6
    q2_elsewhere = q2.replace(params.p0, other[position["pnum"]]).replace(
        params.d0, other[position["date"]]
    )
    _warm(session, q2, q6, q7, q2_elsewhere)
    before = session.stats()

    copy = (10**8,) + source[1:]
    session.insert("call", [copy])
    # the copy adds a support to a (recnum, region) psi1 already holds
    assert _cached(session, q2) and _cached(session, q6)
    assert _cached(session, q2_elsewhere)
    # ... and a call_id to the psi6 bucket of the same key
    after_insert = session.run(q7)
    assert not after_insert.metrics.served_from_cache
    assert after_insert.rows == session.run(q7, use_result_cache=False).rows
    assert _cached(session, q7)  # readmitted at once: the key is known

    session.delete("call", [copy])
    assert _cached(session, q2) and _cached(session, q6)
    assert _cached(session, q2_elsewhere)
    assert not _cached(session, q7)
    after = session.stats()
    assert after.invalidated_exact - before.invalidated_exact == 2
    assert (after.invalidated_coarse, after.invalidated_sweep) == (0, 0)
    assert after.result.invalidations == after.invalidated_exact

    # a write that touches no cached key removes nothing
    calls = []
    inner = ResultCache._remove
    monkeypatch.setattr(
        ResultCache,
        "_remove",
        lambda self, key, slot: calls.append(key) or inner(self, key, slot),
    )
    fresh_key = (10**8 + 1, "no-such-pnum") + source[2:]
    session.insert("call", [fresh_key])
    session.delete("call", [fresh_key])
    assert calls == []


def test_a_sweep_says_why_in_the_log(tlc_session, caplog):
    session, params = tlc_session
    q2 = query_by_name(params, "Q2").sql
    q11 = query_by_name(params, "Q11").sql  # PARTIAL: scans data_usage
    _warm(session, q2, q11)
    usage = session.database.table("data_usage")
    with caplog.at_level("DEBUG", logger="repro.serving.cache"):
        session.insert("data_usage", [(10**8,) + usage.rows[0][1:]])
        MaintenanceManager(session.beas.catalog).insert(
            "call", [(10**8,) + session.database.table("call").rows[0][1:]]
        )
        assert not _cached(session, q2)
    messages = [record.getMessage() for record in caplog.records]
    assert any("write to data_usage dropped 1 entries filed coarse" in m for m in messages)
    assert any("swept call (out-of-band change), 1 entries dropped" in m for m in messages)
    stats = session.stats()
    assert (stats.invalidated_coarse, stats.invalidated_sweep) == (1, 1)
    assert stats.result.invalidations == 2
    assert "invalidated 0 exact / 1 coarse / 1 by sweep" in stats.describe()


def test_result_size_is_flat_and_close_to_the_recursive_measure(tlc_session):
    """The rows are charged as the recursive measure charges them, in one
    flat pass (512 TLC answers, old measure vs the flat pass), and what
    the cache files beside them on top: one charge per entry and one per
    read key."""
    session, params = tlc_session
    call = session.database.table("call")
    keys = call.project(["pnum", "date"], distinct=True)[:512]
    assert len(keys) == 512
    q2 = query_by_name(params, "Q2").sql
    old = new = 0

    @dataclass
    class Answer:
        columns: list
        rows: list
        read_keys: tuple = ()

    filed = cache_module._ENTRY
    sizes = []
    for pnum, date in keys:
        result = session.run(
            q2.replace(params.p0, pnum).replace(params.d0, date), use_result_cache=False
        )
        answer = Answer(result.columns, result.rows)
        size = result_size(answer)
        sizes.append((len(result.rows), size))
        new += size - filed
        old += cache_module.approx_size(answer.columns) + cache_module.approx_size(
            answer.rows
        )
    assert 0.8 * old <= new <= 1.2 * old
    # monotone in the same inputs: more rows of one shape never weigh less
    ordered = sorted(sizes)
    assert all(a[1] <= b[1] for a, b in zip(ordered, ordered[1:]) if a[0] < b[0])
    wide = Answer(["a", "b"], [(None, True), ("xy", 1.5), (7, "z" * 100)])
    assert result_size(wide) > result_size(Answer(["a", "b"], wide.rows[:2]))
    # ... and in the read keys filed
    keyed = Answer(wide.columns, wide.rows, (("psi1", ("100",)), ("psi2", ("7",))))
    assert result_size(keyed) == result_size(wide) + 2 * cache_module._READ_KEY
    assert cache_module._READ_KEY > 0 and filed > 0


def tlc_texts(session: Session, params, bindings: int) -> list[str]:
    """Q1-Q11 as ad-hoc text under ``bindings`` sets of constants drawn
    from the data: a call key, a callee, a business, a package, a month."""
    database = session.database
    calls = database.table("call").project(["pnum", "date"], distinct=True)
    callees = database.table("call").project(["recnum"], distinct=True)
    businesses = database.table("business").project(["type", "region"], distinct=True)
    packages = database.table("package").project(["pid"], distinct=True)
    texts = []
    for i in range(bindings):
        (pnum, date), (callee,) = calls[7 * i % len(calls)], callees[11 * i % len(callees)]
        (kind, region) = businesses[i % len(businesses)]
        bound = replace(
            params, p0=pnum, d0=date, x0=callee, t0=kind, r0=region,
            c0=packages[i % len(packages)][0], m0=1 + i % 12,
        )  # fmt: skip
        texts += [query.sql for query in tlc_queries(bound)]
    return texts


def test_the_byte_budget_counts_what_the_entries_hold(tlc_session):
    """``result_bytes`` is within 25 % of the memory the cached TLC
    answers hold: what ``flush`` frees, read by ``tracemalloc`` (the
    doorkeeper, bounded by its own key count, is emptied first). There
    are more texts than the parse cache holds, so, as on a workload
    larger than it, each entry's key is its own."""
    session, params = tlc_session
    results = session.beas.results
    texts = tlc_texts(session, params, 150)
    assert len(texts) > 3 * PARSE_CACHE_ENTRIES
    for sql in texts:  # the parse, decision and template caches warm up
        session.run(sql)
    results.flush("test")
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(2):  # a bounded answer is installed on its second sighting
            for sql in texts:
                session.run(sql)
        held = session.stats()
        results._doorkeeper.clear()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        results.flush("test")
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held.result_entries > 1000 and held.result.evictions == 0
    assert 0.75 * freed <= held.result_bytes <= 1.25 * freed, (held.result_bytes, freed)


def test_the_full_doorkeeper_holds_hashes_not_keys():
    """Filled past its capacity with keys of 1 KB each, the doorkeeper
    holds under 200 B per key it remembers (the keys would be > 1 KB
    each), and still admits exactly the keys it remembers."""
    results = ResultCache(max_bytes=1 << 20)
    capacity = ResultCache._DOORKEEPER_KEYS

    def key(i: int) -> tuple:
        return (f"{i:06}" + "x" * 1024, None, False)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not any(results.admits(key(i)) for i in range(2 * capacity))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 200 * capacity, held
    assert results.admits(key(2 * capacity - 1))
    assert not results.admits(key(0))


# --------------------------------------------------------------------------- #
# (3) hygiene: 5 000 admits over 600 keys, evictions and invalidations
# interleaved
# --------------------------------------------------------------------------- #
@dataclass
class _Entry:
    tables: frozenset
    coarse_tables: frozenset
    read_keys: tuple
    rows: int = 1
    cost: float = 0.0


def test_the_filing_never_dangles():
    rng = random.Random(20)
    results = ResultCache(max_bytes=4000, sizeof=lambda entry: 40 * entry.rows)
    tables = ["a", "b", "c"]
    versions = dict.fromkeys(tables, 0)

    def entry() -> _Entry:
        deps = frozenset(rng.sample(tables, rng.randint(1, 2)))
        fine = [t for t in deps if rng.random() < 0.8]
        keys = {
            (f"psi_{t}", (rng.randrange(40),)) for t in fine for _ in range(rng.randint(0, 6))
        }
        return _Entry(
            tables=deps,
            coarse_tables=deps - frozenset(fine),
            read_keys=tuple(keys),
            rows=rng.randint(1, 8),
        )

    admits = 0
    while admits < 5000:
        key = rng.randrange(600)
        roll = rng.random()
        if roll < 0.9:
            admits += 1
            if results.admits(key):
                results.install(key, entry())  # replaces, and may evict
        elif roll < 0.97:
            table = rng.choice(tables)
            versions[table] += 1
            changed = {f"psi_{table}": [(rng.randrange(40),) for _ in range(3)]}
            results.apply_write(table, versions[table] - 1, versions[table], changed)
        elif roll < 0.99:
            table = rng.choice(tables)
            versions[table] += 1
            results.sweep(table, versions[table], "test")
        else:
            results.invalidate(key)
        if admits % 250 == 0:
            assert_filing_is_tight(results)
    lru, own = results.snapshot()
    causes = [own[f"invalidated_{cause}"] for cause in ("exact", "coarse", "sweep")]
    assert lru.evictions > 0 and all(causes)
    assert lru.invalidations == sum(causes)
    assert own["result_entries"] == len(results) <= 4000 // 40
    assert own["result_bytes"] <= own["result_max_bytes"] == 4000
    assert_filing_is_tight(results)
    results.flush("test")
    assert len(results) == 0
    assert not (results._by_key or results._coarse or results._by_table)


# --------------------------------------------------------------------------- #
# (4) what is filed coarse
# --------------------------------------------------------------------------- #
def _session(**options) -> Session:
    options.setdefault("parallelism", 1)
    options.setdefault("replicas", 1)
    return Session(
        build_database(INITIAL), AccessSchema(constraints()),
        options=ExecutionOptions(routing="static", **options),
    )  # fmt: skip


def test_a_partial_answer_goes_with_the_table_it_scans():
    partial = render("partial", {"t": "bank", "z": "east"})
    with _session() as session:
        _warm(session, partial)
        assert session.run(partial).mode is ExecutionMode.PARTIAL
        # another bucket of the prefix's table: the answer never fetched it
        session.insert("business", [("102", "shop", "west")])
        assert _cached(session, partial)
        # any row of the scanned table
        session.insert("package", [(90, "102", "c1", 2015)])
        assert not _cached(session, partial)
        assert session.stats().invalidated_coarse == 1
        assert _cached(session, partial)
        # the prefix's own bucket
        session.insert("business", [("102", "bank", "east")])
        refreshed = session.run(partial)
        assert not refreshed.metrics.served_from_cache
        assert ("c1",) in refreshed.rows
        assert session.stats().invalidated_exact == 1


def test_a_conventional_answer_goes_with_any_write_to_its_table():
    scan = render("scan", {"x": "555"})
    with _session() as session:
        _warm(session, scan)
        assert session.run(scan).mode is ExecutionMode.CONVENTIONAL
        session.insert("package", [(90, "102", "c1", 2015)])
        assert _cached(session, scan)
        session.insert("call", [(90, "102", "557", "2016-06-02", "south")])
        assert not _cached(session, scan)


@pytest.mark.parametrize("peers", [{"parallelism": 2}, {"replicas": 2}])
def test_a_remote_answer_goes_with_any_write_to_its_tables(peers):
    who = render("who", {"p": "100", "d": "2016-06-01"})
    with _session(**peers) as session:
        first = session.run(who)
        remote = (
            first.metrics.pool_workers > 0 and first.metrics.pool_fallbacks == 0
            if "parallelism" in peers
            else first.metrics.replica_id >= 0
        )
        if not remote:
            pytest.skip("no peer process answered here: the in-process fallback ran")
        session.run(who)
        assert _cached(session, who)
        # a bucket the answer never fetched: in-process it would stay
        session.insert("call", [(90, "102", "557", "2016-06-02", "south")])
        assert not _cached(session, who)
        assert session.stats().invalidated_coarse == 1


def test_an_answer_over_the_read_set_cap_is_filed_coarse(monkeypatch):
    import repro.serving.request as request_module

    join = render("join", {"t": "bank", "z": "east", "d": "2016-06-01"})
    monkeypatch.setattr(request_module, "READ_SET_CAP", 2)
    with _session() as session:
        _warm(session, join)
        ((_, entry),) = session.beas.results.entries()
        assert entry.read_keys == () and entry.coarse_tables == {"call", "business"}
        session.insert("call", [(90, "102", "557", "2016-06-02", "south")])
        assert not _cached(session, join)


# --------------------------------------------------------------------------- #
# (5) threads: every answer checked at the versions it reports
# --------------------------------------------------------------------------- #
THREAD_PNUMS = [f"{n:03d}" for n in range(50)]
THREAD_DATES = ["2016-06-01", "2016-06-02", "2016-06-03", "2016-06-04"]


def test_concurrent_writers_never_leave_a_stale_answer():
    rng = random.Random(5)
    rows = {
        "call": [
            (i, rng.choice(THREAD_PNUMS), rng.choice(RECNUMS), rng.choice(THREAD_DATES),
             rng.choice(REGIONS))
            for i in range(400)
        ],
        "package": [
            (i, pnum, rng.choice(PIDS), 2016) for i, pnum in enumerate(THREAD_PNUMS[:20])
        ],
        "business": [(pnum, rng.choice(TYPES), rng.choice(ZONES)) for pnum in THREAD_PNUMS[:12]],
        "reading": [],
    }  # fmt: skip
    wide = [
        AccessConstraint(c.relation, c.x, c.y, 400, name=c.name) for c in constraints()
    ]
    session = Session(
        build_database(rows), AccessSchema(wide),
        options=ExecutionOptions(parallelism=1, replicas=1, routing="static"),
    )  # fmt: skip
    database = session.database
    written = ["call", "package", "business"]
    # table -> version -> its rows at that version (each table has one writer)
    history = {
        name: {database.table(name).version: list(database.table(name).rows)}
        for name in rows
    }
    keys = [(p, d) for p in THREAD_PNUMS for d in THREAD_DATES]  # 200
    observed: list[tuple] = []
    errors: list = []
    barrier = threading.Barrier(8)
    hot = keys[:40]
    for pnum, date in hot:  # cached before the first write lands
        _warm(session, render("who", {"p": pnum, "d": date}))

    def writer(table: str, seed: int) -> None:
        local = random.Random(seed)
        mine: list[tuple] = []
        try:
            barrier.wait(timeout=30)
            for step in range(80):
                time.sleep(0.0005)  # spread the writes over the readers' run
                if mine and local.random() < 0.4:
                    victims = [mine.pop(local.randrange(len(mine)))]
                    batch = session.delete(table, victims)
                else:
                    ident = 10**6 * (seed + 1) + step
                    if table == "call":
                        # a hot key; every other insert copies a held
                        # (recnum, region), the rest bring a new one
                        pnum, date = local.choice(hot)
                        new = (ident, pnum, local.choice(RECNUMS), date,
                               local.choice(REGIONS) if step % 2 else f"storm{step}")  # fmt: skip
                    elif table == "package":
                        new = (ident, local.choice(THREAD_PNUMS), local.choice(PIDS), 2016)
                    else:
                        new = (local.choice(THREAD_PNUMS), local.choice(TYPES),
                               local.choice(ZONES))  # fmt: skip
                    batch = session.insert(table, [new])
                    mine.append(new)
                history[table][batch.table_version] = list(database.table(table).rows)
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def reader(seed: int) -> None:
        local = random.Random(100 + seed)
        try:
            barrier.wait(timeout=30)
            for _ in range(200):
                pnum, date = local.choice(hot if local.random() < 0.7 else keys)
                template = local.choice(["who", "who", "ids", "packages", "join", "partial"])
                values = {
                    "p": pnum, "d": date, "y": 2016,
                    "t": local.choice(TYPES), "z": local.choice(ZONES),
                }  # fmt: skip
                values = {name: values[name] for name in TEMPLATES[template][1]}
                result = session.run(render(template, values))
                observed.append(
                    (template, tuple(values.items()), result.rows,
                     dict(result.metrics.table_versions))
                )  # fmt: skip
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    writers = [
        threading.Thread(target=writer, args=(table, i)) for i, table in enumerate(written)
    ]
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers + readers:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert not errors, errors
        stats = session.stats()
        assert_filing_is_tight(session.beas.results)
    finally:
        sys.setswitchinterval(interval)
        session.close()

    assert len(observed) == 5 * 200
    assert stats.result.hits > 0 and stats.invalidated_exact > 0
    expected: dict[tuple, Counter] = {}
    for template, values, answer, versions in observed:
        at = tuple(sorted(versions.items()))
        memo = (template, values, at)
        if memo not in expected:
            snapshot = {name: history[name][version] for name, version in versions.items()}
            snapshot.update({name: [] for name in rows if name not in snapshot})
            expected[memo] = Counter(
                reference_execute(build_database(snapshot), render(template, dict(values)))
            )
        assert Counter(answer) == expected[memo], (template, values, at)
