"""Differential fuzzing: every BEAS mode vs the brute-force oracle.

A seeded random generator produces SPJA queries (projections, equality /
range / IN predicates, joins, aggregates, GROUP BY, LIMIT) over the
paper's Example-1 schema and over the TLC schema, and asserts that
whatever mode BEAS picks — bounded, partial, conventional, and the
serving layer's cached replays of each — agrees with
``tests.reference_evaluator`` under bag semantics. Random interleaved
insert/delete batches re-run the same queries against a fresh oracle
afterwards, which is the guard that the serving caches never serve
stale or wrong rows.

Comparison rules:

* non-bag-exact bounded answers carry set semantics (the checker records
  ``bag_exact=False``), so they compare as sets against the oracle;
* everything else compares as a multiset;
* ``LIMIT`` without ``ORDER BY`` may return any admissible subset, so
  those compare by cardinality + multiset containment.

Every comparison is a hard assert, each parametrized test asserts it
performed exactly its configured share of scenarios, and
``test_scenario_floor`` checks the configured total covers at least 200
query/maintenance scenarios.
"""

from __future__ import annotations

import os
import random
import threading
from collections import Counter

import pytest

from repro import BEAS, Database
from repro.config import env_fuzz_seeds
from repro.beas.result import ExecutionMode
from repro.errors import MaintenanceError
from repro.workloads.tlc import tlc_access_schema
from repro.workloads.tlc.schema import tlc_schema

from tests.conftest import example1_access_schema, example1_schema
from tests.reference_evaluator import reference_execute

_SCENARIOS = 0  # comparisons performed across the whole module


# --------------------------------------------------------------------------- #
# random Example-1 instances
# --------------------------------------------------------------------------- #
PNUMS = ["100", "101", "102", "103", "104", "105"]
DATES = ["2016-06-01", "2016-06-02", "2016-06-03"]
REGIONS = ["north", "south", "east", "west", "plains"]
TYPES = ["bank", "shop", "cafe"]
RECNUMS = ["555", "556", "557", "558"]
PIDS = ["c0", "c1", "c2"]


def random_example1_db(rng: random.Random) -> Database:
    db = Database(example1_schema())
    for pnum in PNUMS:
        db.insert("business", (pnum, rng.choice(TYPES), rng.choice(REGIONS)))
    for pkg_id in range(rng.randint(4, 10)):
        year = rng.choice([2015, 2016])
        db.insert(
            "package",
            (
                pkg_id,
                rng.choice(PNUMS),
                rng.choice(PIDS),
                f"{year}-01-01",
                f"{year}-12-31",
                year,
            ),
        )
    for call_id in range(rng.randint(6, 16)):
        db.insert(
            "call",
            (
                call_id,
                rng.choice(PNUMS),
                rng.choice(RECNUMS),
                rng.choice(DATES),
                rng.choice(REGIONS),
            ),
        )
    # rows on which the same-occurrence equalities the queries draw hold:
    # a business calling its own number, a callee numbered like a region,
    # a business whose type names its region, a one-day package
    pnum = rng.choice(PNUMS)
    db.insert("call", (90, pnum, pnum, rng.choice(DATES), rng.choice(REGIONS)))
    region = rng.choice(REGIONS)
    db.insert("call", (91, rng.choice(PNUMS), region, rng.choice(DATES), region))
    kind = rng.choice(TYPES)
    db.insert("business", ("106", kind, kind))
    db.insert(
        "package",
        (90, rng.choice(PNUMS), rng.choice(PIDS), "2016-06-01", "2016-06-01", 2016),
    )
    return db


# --------------------------------------------------------------------------- #
# random query generation (SQL text; all column refs are qualified)
# --------------------------------------------------------------------------- #
def _random_predicates(rng: random.Random, tables: list[str]) -> list[str]:
    choices: list[str] = []
    if "call" in tables:
        choices += [
            f"call.pnum = '{rng.choice(PNUMS)}'",
            f"call.date = '{rng.choice(DATES)}'",
            f"call.region IN ({', '.join(repr(r) for r in rng.sample(REGIONS, 2))})",
            f"call.date >= '{rng.choice(DATES)}'",
            f"call.region <> '{rng.choice(REGIONS)}'",
            # a keyed lookup (psi1's X) with an equality between two
            # columns its one fetch brings in
            f"call.pnum = '{rng.choice(PNUMS)}' AND call.date = '{rng.choice(DATES)}'"
            f" AND {rng.choice(['call.pnum = call.recnum', 'call.recnum = call.region'])}",
        ]
    if "business" in tables:
        choices += [
            f"business.type = '{rng.choice(TYPES)}'",
            f"business.region = '{rng.choice(REGIONS)}'",
            f"business.type IN ({', '.join(repr(t) for t in rng.sample(TYPES, 2))})",
            "business.type = business.region",
        ]
    if "package" in tables:
        choices += [
            f"package.year = {rng.choice([2015, 2016])}",
            f"package.pid = '{rng.choice(PIDS)}'",
            "package.year BETWEEN 2015 AND 2016",
            f"package.start <= '{rng.choice(DATES)}'",
            "package.start = package.end",
        ]
    rng.shuffle(choices)
    return choices[: rng.randint(1, 3)]


def random_example1_query(rng: random.Random) -> tuple[str, int | None]:
    """One random SPJA query; returns (sql, limit_or_none)."""
    tables = rng.choice(
        [
            ["call"],
            ["business"],
            ["package"],
            ["call", "business"],
            ["call", "package"],
            ["call", "package", "business"],
        ]
    )
    joins: list[str] = []
    if "call" in tables and "business" in tables:
        joins.append("call.pnum = business.pnum")
    if "call" in tables and "package" in tables:
        joins.append("call.pnum = package.pnum")
    if tables == ["package", "business"]:  # pragma: no cover - not generated
        joins.append("package.pnum = business.pnum")

    predicates = joins + _random_predicates(rng, tables)
    where = " AND ".join(predicates)

    shape = rng.random()
    limit: int | None = None
    if shape < 0.25 and len(tables) == 1:
        # aggregates over one table (keeps the oracle obviously right)
        table = tables[0]
        agg_col = {"call": "call.region", "business": "business.pnum", "package": "package.year"}[table]
        select = rng.choice(
            [
                "COUNT(*)",
                f"COUNT(DISTINCT {agg_col})",
                f"MIN({agg_col}), MAX({agg_col})",
            ]
        )
        sql = f"SELECT {select} FROM {table} WHERE {where}"
    elif shape < 0.4 and "call" in tables:
        # GROUP BY with an aggregate
        sql = (
            f"SELECT call.region, COUNT(*) AS n FROM {', '.join(tables)} "
            f"WHERE {where} GROUP BY call.region"
        )
    else:
        columns = {
            "call": ["call.region", "call.recnum", "call.date"],
            "business": ["business.pnum", "business.type"],
            "package": ["package.pid", "package.year"],
        }
        pool = [c for t in tables for c in columns[t]]
        selected = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        distinct = "DISTINCT " if rng.random() < 0.4 else ""
        sql = f"SELECT {distinct}{', '.join(selected)} FROM {', '.join(tables)} WHERE {where}"
        if rng.random() < 0.25:
            limit = rng.randint(1, 5)
            sql += f" LIMIT {limit}"
    return sql, limit


# --------------------------------------------------------------------------- #
# the oracle comparison
# --------------------------------------------------------------------------- #
def _normalise(rows) -> list[tuple]:
    return [
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def assert_matches_oracle(db: Database, result, sql: str, limit: int | None) -> None:
    """Compare one BEAS result (or the host engine's ``QueryResult``,
    which has no mode: a bag) against the brute-force reference."""
    global _SCENARIOS
    oracle_sql = sql
    if limit is not None:
        oracle_sql = sql[: sql.rfind(" LIMIT ")]  # compare by containment
    reference = _normalise(reference_execute(db, oracle_sql))
    rows = _normalise(result.rows)

    set_semantics = (
        getattr(result, "mode", None) is ExecutionMode.BOUNDED
        and not result.decision.bag_exact
    )
    if limit is not None:
        base = sorted(set(reference)) if set_semantics else reference
        assert len(rows) == min(limit, len(base)), (sql, rows, base)
        assert not (Counter(rows) - Counter(base)), (sql, rows, base)
        assert len(set(rows)) == len(rows) if set_semantics else True
    elif set_semantics:
        assert set(rows) == set(reference), (sql, rows, reference)
        assert len(set(rows)) == len(rows), (sql, rows)
    else:
        assert Counter(rows) == Counter(reference), (sql, rows, reference)
    _SCENARIOS += 1


def _maintenance_round(rng: random.Random, session, next_id: int) -> int:
    """One random interleaved insert/delete round through the session."""
    beas = session.beas
    for _ in range(rng.randint(1, 2)):
        action = rng.random()
        try:
            if action < 0.5:
                rows = [
                    (
                        next_id + i,
                        rng.choice(PNUMS),
                        rng.choice(RECNUMS),
                        rng.choice(DATES),
                        rng.choice(REGIONS),
                    )
                    for i in range(rng.randint(1, 3))
                ]
                next_id += len(rows)
                session.insert("call", rows)
            elif action < 0.75:
                year = rng.choice([2015, 2016])
                session.insert(
                    "package",
                    [
                        (
                            1000 + next_id,
                            rng.choice(PNUMS),
                            rng.choice(PIDS),
                            f"{year}-03-01",
                            f"{year}-11-30",
                            year,
                        )
                    ],
                )
                next_id += 1
            else:
                table = beas.database.table(rng.choice(["call", "package"]))
                if table.rows:
                    victims = rng.sample(
                        table.rows, min(len(table.rows), rng.randint(1, 2))
                    )
                    session.delete(table.schema.name, victims)
        except MaintenanceError:
            pass  # REJECT policy refused a violating batch: state unchanged
    return next_id


# --------------------------------------------------------------------------- #
EXAMPLE1_SEEDS = 24
EXAMPLE1_SCENARIOS_PER_SEED = 18  # 4 queries x 2 runs + 2 rounds x (4 + 1)
TLC_SEEDS = 5
TLC_SCENARIOS_PER_SEED = 9  # 3 queries x 2 runs + 3 after maintenance


@pytest.mark.parametrize("seed", range(EXAMPLE1_SEEDS))
def test_example1_differential(seed: int):
    before = _SCENARIOS
    rng = random.Random(987_001 + seed)
    db = random_example1_db(rng)
    beas = BEAS(db, example1_access_schema())
    session = beas.session()
    queries = [random_example1_query(rng) for _ in range(4)]
    prepared = [session.query(sql) for sql, _ in queries]

    # cold + warm (cache-served) runs against the oracle
    for (sql, limit), handle in zip(queries, prepared):
        assert_matches_oracle(db, session.run(sql), sql, limit)
        warm = handle.run()
        assert_matches_oracle(db, warm, sql, limit)

    # interleaved maintenance, then the same prepared queries again:
    # every answer must reflect the *new* data
    next_id = 10_000
    for round_index in range(2):
        next_id = _maintenance_round(rng, session, next_id)
        for (sql, limit), handle in zip(queries, prepared):
            assert_matches_oracle(db, handle.run(), sql, limit)
        # exercise the conventional path on one query per round too
        sql, limit = queries[round_index % len(queries)]
        conventional = beas.host_engine().execute(sql)
        assert_matches_oracle(db, conventional, sql, limit)
    assert _SCENARIOS - before == EXAMPLE1_SCENARIOS_PER_SEED


# --------------------------------------------------------------------------- #
# the TLC schema (truncated instance so the oracle stays affordable)
# --------------------------------------------------------------------------- #
def truncated_tlc_db(source_db: Database, rng: random.Random) -> Database:
    keep = {"call": 80, "package": 50, "business": 40, "sms": 40, "customer": 40}
    db = Database(tlc_schema())
    for table in source_db:
        name = table.schema.name
        rows = table.rows[: keep.get(name, 10)]
        for row in rows:
            db.insert(name, row)
    return db


def random_tlc_query(rng: random.Random, db: Database) -> tuple[str, int | None]:
    calls = db.table("call").rows
    pnum = rng.choice(calls)[1] if calls else "P0000001"
    date = rng.choice(calls)[3] if calls else "2016-06-01"
    kind = rng.random()
    if kind < 0.35:
        return (
            f"SELECT DISTINCT recnum, region FROM call "
            f"WHERE pnum = '{pnum}' AND date = '{date}'",
            None,
        )
    if kind < 0.55:
        return (
            f"SELECT COUNT(DISTINCT region) FROM call WHERE pnum = '{pnum}'",
            None,
        )
    if kind < 0.8:
        businesses = db.table("business").rows
        btype = rng.choice(businesses)[1] if businesses else "bank"
        return (
            f"SELECT business.pnum, package.pid FROM business, package "
            f"WHERE business.pnum = package.pnum AND business.type = '{btype}' "
            f"AND package.year = 2016",
            None,
        )
    limit = rng.randint(1, 4)
    return (
        f"SELECT call.recnum FROM call WHERE call.date = '{date}' LIMIT {limit}",
        limit,
    )


@pytest.mark.parametrize("seed", range(TLC_SEEDS))
def test_tlc_differential(seed: int, tlc_small):
    before = _SCENARIOS
    rng = random.Random(123_400 + seed)
    db = truncated_tlc_db(tlc_small.database, rng)
    beas = BEAS(db, tlc_access_schema())
    session = beas.session()
    queries = [random_tlc_query(rng, db) for _ in range(3)]
    for sql, limit in queries:
        assert_matches_oracle(db, session.run(sql), sql, limit)
        assert_matches_oracle(db, session.run(sql), sql, limit)  # cached

    # delete a few call rows through the serving layer, re-compare
    victims = rng.sample(db.table("call").rows, 3)
    session.delete("call", victims)
    for sql, limit in queries:
        assert_matches_oracle(db, session.run(sql), sql, limit)
    assert _SCENARIOS - before == TLC_SCENARIOS_PER_SEED


def test_scenario_floor():
    """The acceptance bar: a full run covers at least 200 scenarios.

    Each parametrized test above asserts it performed exactly its share
    (so this arithmetic cannot drift from reality), which keeps this
    check independent of test selection order.
    """
    total = (
        EXAMPLE1_SEEDS * EXAMPLE1_SCENARIOS_PER_SEED
        + TLC_SEEDS * TLC_SCENARIOS_PER_SEED
    )
    assert total >= 200, f"configured for only {total} differential scenarios"


# --------------------------------------------------------------------------- #
# concurrent interleavings: maintenance + prepared executes across threads
# --------------------------------------------------------------------------- #
# The CI concurrency job raises the seed count via BEAS_FUZZ_SEEDS.
CONCURRENT_SEEDS = env_fuzz_seeds(8)  # validated centrally (repro.config)
CONCURRENT_WRITER_TABLES = ("call", "package", "business")  # >= 3 tables
CONCURRENT_WRITE_ROUNDS = 6
CONCURRENT_READERS = 3
CONCURRENT_READS = 9

_CONCURRENT_SCENARIOS = 0


def _concurrent_write_batch(
    table: str, rng: random.Random, thread: int, op: int
) -> list[tuple]:
    """A key-unique batch for one table's single writer thread."""
    base = 70_000 + thread * 1_000 + op * 10
    if table == "call":
        return [
            (
                base + i,
                rng.choice(PNUMS),
                rng.choice(RECNUMS),
                rng.choice(DATES),
                rng.choice(REGIONS),
            )
            for i in range(rng.randint(1, 3))
        ]
    if table == "package":
        year = rng.choice([2015, 2016])
        # fresh pnum per batch keeps psi2's per-(pnum, year) bound safe
        return [
            (
                base,
                f"7{thread}{op:02d}",
                rng.choice(PIDS),
                f"{year}-03-01",
                f"{year}-11-30",
                year,
            )
        ]
    return [(f"8{thread}{op:02d}", rng.choice(TYPES), rng.choice(REGIONS))]


def _concurrent_writer(
    session,
    table: str,
    thread: int,
    rng: random.Random,
    snapshots: dict[str, dict[int, list[tuple]]],
    errors: list,
    barrier: threading.Barrier,
) -> None:
    """The single mutator of ``table``: every version it produces is
    snapshotted, so any version a reader observes can be replayed."""
    from repro.errors import MaintenanceError

    live = session.database.table(table)
    try:
        barrier.wait(timeout=30)
        for op in range(CONCURRENT_WRITE_ROUNDS):
            try:
                if rng.random() < 0.3 and live.rows:
                    victims = rng.sample(
                        live.rows, min(len(live.rows), rng.randint(1, 2))
                    )
                    session.delete(table, victims)
                else:
                    session.insert(
                        table, _concurrent_write_batch(table, rng, thread, op)
                    )
            except MaintenanceError:
                pass  # REJECTed batch: rows unchanged, version still bumped
            # this thread is the table's only writer, so version + rows
            # cannot move between these two reads
            snapshots[table][live.version] = list(live.rows)
    except Exception as error:  # pragma: no cover - assertion target
        errors.append(error)


def _concurrent_reader(
    session,
    queries: list[tuple[str, int | None]],
    observations: list,
    errors: list,
    barrier: threading.Barrier,
) -> None:
    try:
        prepared = [session.query(sql) for sql, _ in queries]
        barrier.wait(timeout=30)
        for op in range(CONCURRENT_READS):
            sql, limit = queries[op % len(queries)]
            if op % 2:
                result = prepared[op % len(queries)].run()
            else:
                result = session.run(sql)
            observations.append(
                (sql, limit, result, dict(result.metrics.table_versions))
            )
    except Exception as error:  # pragma: no cover - assertion target
        errors.append(error)


def _db_at_versions(
    snapshots: dict[str, dict[int, list[tuple]]], versions: dict[str, int]
) -> Database:
    """Rebuild the dependency tables at one observed version vector."""
    db = Database(example1_schema())
    for table, version in versions.items():
        assert version in snapshots[table], (
            "answer reflects a table version no writer produced "
            "(torn read across shards?)",
            table,
            version,
            sorted(snapshots[table]),
        )
        for row in snapshots[table][version]:
            db.insert(table, row)
    return db


@pytest.mark.parametrize("seed", range(CONCURRENT_SEEDS))
def test_concurrent_differential(seed: int):
    """Interleaved maintenance + prepared executes from multiple threads:
    every answer must equal the brute-force oracle evaluated at the
    consistent table-version vector the session says it observed."""
    global _CONCURRENT_SCENARIOS
    rng = random.Random(555_000 + seed)
    db = random_example1_db(rng)
    beas = BEAS(db, example1_access_schema())
    session = beas.session()

    snapshots: dict[str, dict[int, list[tuple]]] = {}
    for table in db:
        snapshots[table.schema.name] = {table.version: list(table.rows)}

    reader_queries = [
        [random_example1_query(rng) for _ in range(4)]
        for _ in range(CONCURRENT_READERS)
    ]
    writer_rngs = {
        table: random.Random(rng.random())
        for table in CONCURRENT_WRITER_TABLES
    }

    errors: list = []
    observations: list[list] = [[] for _ in range(CONCURRENT_READERS)]
    barrier = threading.Barrier(
        len(CONCURRENT_WRITER_TABLES) + CONCURRENT_READERS
    )
    threads = [
        threading.Thread(
            target=_concurrent_writer,
            args=(
                session, table, index, writer_rngs[table], snapshots, errors,
                barrier,
            ),
        )
        for index, table in enumerate(CONCURRENT_WRITER_TABLES)
    ] + [
        threading.Thread(
            target=_concurrent_reader,
            args=(
                session, reader_queries[i], observations[i], errors, barrier,
            ),
        )
        for i in range(CONCURRENT_READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert all(not thread.is_alive() for thread in threads), "deadlock"

    # serially verify every concurrent answer against the oracle at the
    # version vector it claims (each observation is one scenario)
    checked = 0
    for per_reader in observations:
        assert len(per_reader) == CONCURRENT_READS
        for sql, limit, result, versions in per_reader:
            oracle_db = _db_at_versions(snapshots, versions)
            assert_matches_oracle(oracle_db, result, sql, limit)
            checked += 1
    assert checked == CONCURRENT_READERS * CONCURRENT_READS
    _CONCURRENT_SCENARIOS += checked


def test_concurrent_scenario_floor():
    """The acceptance bar: >= 200 seeded interleaved scenarios at the
    default seed count (each parametrized run above asserts its exact
    share, so this arithmetic reflects what actually executed)."""
    configured = (
        env_fuzz_seeds(8)
        * CONCURRENT_READERS
        * CONCURRENT_READS
    )
    assert configured >= 200, (
        f"configured for only {configured} concurrent scenarios"
    )
