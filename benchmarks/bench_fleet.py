"""E11 — fleet-served vs single-process bounded reads under multi-client load.

PR 9's engine pool scales *one* query's bounded work across worker
processes; the serving fleet (``repro.distributed``) scales *many
clients'* reads instead: each covered bounded query is dispatched whole
to the socket-connected replica that holds its constraint's indices, so
N clients whose templates route to N different replicas compute in N
processes at once while the coordinator thread only pickles frames.

This bench builds four identically-shaped event tables, each governed by
its own access constraint, so round-robin placement homes each
constraint on a distinct replica and four client threads (one table
each, distinct key batches per query, the bench_columnar workload shape)
exercise the whole fleet. It drives the same workload against

* a single-process columnar BEAS (``replicas=1``), and
* a four-replica fleet (``replicas=4``) of the same engine.

The acceptance bar asserted here: >= 2x aggregate read throughput for
the fleet configuration on hosts exposing at least ``MIN_CPUS`` CPUs —
below that the replicas time-slice one core and the bar is skipped (with
a loud message); answer equality against the single-process oracle is
still checked everywhere, as is the four-way placement itself.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_fleet.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_fleet.py --quick``) — the latter is the CI smoke
(small dataset, crash + equality + placement detection, no perf
assertion).
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.bench.reporting import format_table

from benchmarks.conftest import once, write_report

DATES = ("2016-06-01", "2016-06-02")
REGIONS = 8
TABLES = 4  # one constraint per table -> one replica per client
KEYS = 240
ROWS_PER_BUCKET = 120  # -> 57 600 base rows per table
CLIENTS = TABLES
REPLICAS = 4
QUERIES_PER_CLIENT = 6
KEYS_PER_QUERY = 60
TARGET_SPEEDUP = 2.0
MIN_CPUS = 2

QUICK_KEYS = 40
QUICK_ROWS_PER_BUCKET = 20
QUICK_QUERIES_PER_CLIENT = 2

_PORTS = itertools.count(8700, 16)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_fleet_db(keys: int, rows_per_bucket: int) -> Database:
    """``TABLES`` synthetic event tables, identically shaped.

    Each table conforms to its own (k, date) constraint, so the fleet's
    round-robin placement homes every table's indices on a different
    replica and the per-table client workloads route four ways.
    """
    rng = random.Random(90_126)
    schema = DatabaseSchema(
        [
            TableSchema(
                f"event{t}",
                [
                    ("k", DataType.STRING),
                    ("date", DataType.STRING),
                    ("recnum", DataType.STRING),
                    ("region", DataType.STRING),
                    ("amount", DataType.INT),
                ],
                keys=[("recnum",)],
            )
            for t in range(TABLES)
        ]
    )
    db = Database(schema)
    for t in range(TABLES):
        rows = []
        n = 0
        for ki in range(keys):
            for date in DATES:
                for _ in range(rows_per_bucket):
                    rows.append(
                        (
                            f"k{ki:03d}",
                            date,
                            f"rec{t}-{n}",
                            f"r{rng.randrange(REGIONS)}",
                            rng.randrange(1000),
                        )
                    )
                    n += 1
        table = db.table(f"event{t}")
        table.rows = rows  # bulk load: per-row insert() would dominate setup
        table.version = 1
    return db


def fleet_access(rows_per_bucket: int) -> AccessSchema:
    return AccessSchema(
        [
            AccessConstraint(
                f"event{t}",
                ["k", "date"],
                ["recnum", "region", "amount"],
                rows_per_bucket + 50,
                name=f"by_key{t}",
            )
            for t in range(TABLES)
        ]
    )


def client_queries(client: int, keys: int, queries: int) -> list[str]:
    """Distinct per-client key batches over the client's own table."""
    per_query = min(KEYS_PER_QUERY, keys)
    region_list = ", ".join(f"'r{i}'" for i in range(REGIONS // 2))
    sqls = []
    for q in range(queries):
        start = (client * 31 + q * 17) % keys
        key_list = ", ".join(
            f"'k{(start + i) % keys:03d}'" for i in range(per_query)
        )
        sqls.append(
            f"SELECT region, COUNT(*) AS c, SUM(amount) AS s "
            f"FROM event{client} "
            f"WHERE k IN ({key_list}) AND date = '{DATES[q % len(DATES)]}' "
            f"AND region IN ({region_list}) GROUP BY region"
        )
    return sqls


def drive_clients(beas: BEAS, workloads: list[list[str]]) -> float:
    """Run every client's query stream on its own thread; returns the
    wall-clock seconds for the whole herd to finish."""
    session = beas.session()
    barrier = threading.Barrier(len(workloads))
    errors: list[BaseException] = []

    def client(sqls: list[str]) -> None:
        try:
            barrier.wait()
            for sql in sqls:
                session.run(sql, use_result_cache=False)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(sqls,)) for sqls in workloads
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def measure(
    keys: int, rows_per_bucket: int, queries_per_client: int, repeats: int
) -> dict:
    db = build_fleet_db(keys, rows_per_bucket)
    access = fleet_access(rows_per_bucket)
    single = BEAS(db, access, executor="columnar")
    fleet = BEAS(
        db,
        access,
        executor="columnar",
        replicas=REPLICAS,
        fleet_port_base=next(_PORTS),
    )

    workloads = [
        client_queries(client, keys, queries_per_client)
        for client in range(CLIENTS)
    ]
    total_queries = sum(len(w) for w in workloads)

    # correctness + placement first: every client's template answers
    # identically on both configurations, is served over the wire, and
    # the four templates land on four distinct replicas (this warms the
    # fleet in the main thread, before any client thread exists)
    homes = set()
    for client, sqls in enumerate(workloads):
        a = single.session().run(sqls[0], use_result_cache=False)
        b = fleet.session().run(sqls[0], use_result_cache=False)
        assert a.rows == b.rows, f"fleet answer diverged (client {client})"
        assert a.metrics.tuples_fetched == b.metrics.tuples_fetched
        assert b.metrics.replica_id >= 0, (
            f"client {client} was not served over the wire"
        )
        homes.add(b.metrics.replica_id)
    assert len(homes) == min(CLIENTS, REPLICAS), (
        f"constraints placed on {len(homes)} replicas, not {REPLICAS}"
    )
    # warm the rest of both plan caches
    drive_clients(single, [w[:1] for w in workloads])
    drive_clients(fleet, [w[:1] for w in workloads])

    single_seconds = []
    fleet_seconds = []
    for _ in range(repeats):
        single_seconds.append(drive_clients(single, workloads))
        fleet_seconds.append(drive_clients(fleet, workloads))
    fleet_stats = fleet.fleet_stats()
    fleet.close()

    return {
        "base_rows": sum(len(db.table(f"event{t}")) for t in range(TABLES)),
        "total_queries": total_queries,
        "single": statistics.median(single_seconds),
        "fleet": statistics.median(fleet_seconds),
        "stats": fleet_stats,
    }


def _report(measured: dict, repeats: int) -> str:
    total = measured["total_queries"]
    single, fleet = measured["single"], measured["fleet"]
    speedup = single / max(fleet, 1e-9)
    rows = [
        (
            "single-process columnar",
            f"{single * 1000:.1f}",
            f"{total / max(single, 1e-9):.1f}",
            "1.00x",
        ),
        (
            f"serving fleet ({REPLICAS} replicas)",
            f"{fleet * 1000:.1f}",
            f"{total / max(fleet, 1e-9):.1f}",
            f"{speedup:.2f}x",
        ),
    ]
    table = format_table(
        ["configuration", "herd ms", "queries/s", "speedup"], rows
    )
    stats = measured["stats"]
    stats_line = f"\n{stats.describe()}" if stats is not None else ""
    return (
        f"E11 distributed serving fleet — {measured['base_rows']} base rows "
        f"over {TABLES} tables, {CLIENTS} clients x {total // CLIENTS} "
        f"queries, {repeats} repeats, {_cpus()} CPUs\n\n" + table + stats_line
    )


def run(
    keys: int = KEYS,
    rows_per_bucket: int = ROWS_PER_BUCKET,
    queries_per_client: int = QUERIES_PER_CLIENT,
    repeats: int = 3,
) -> float:
    """Measure, print, persist; returns the aggregate speedup."""
    measured = measure(keys, rows_per_bucket, queries_per_client, repeats)
    text = _report(measured, repeats)
    print(text)
    write_report("bench_fleet.txt", text)
    return measured["single"] / max(measured["fleet"], 1e-9)


def test_fleet_throughput(benchmark):
    if _cpus() < MIN_CPUS:
        import pytest

        pytest.skip(
            f"host exposes {_cpus()} CPUs: the >= {TARGET_SPEEDUP}x bar "
            f"assumes the {REPLICAS} replicas share at least {MIN_CPUS} "
            "real cores (CI runs this on 4-vCPU runners)"
        )
    speedup = once(benchmark, run)
    assert speedup >= TARGET_SPEEDUP, (
        f"serving fleet is only {speedup:.2f}x vs single-process columnar "
        f"(target {TARGET_SPEEDUP}x at {REPLICAS} replicas)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset, crash + equality + placement smoke only — "
        "no perf assertion (CI)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        speedup = run(
            QUICK_KEYS, QUICK_ROWS_PER_BUCKET, QUICK_QUERIES_PER_CLIENT,
            repeats=1,
        )
        print(
            f"OK (quick smoke): fleet/single-process agree; "
            f"speedup {speedup:.2f}x"
        )
        return 0
    speedup = run()
    if _cpus() < MIN_CPUS:
        print(
            f"NOTE: {_cpus()}-CPU host; measured {speedup:.2f}x, the "
            f">= {TARGET_SPEEDUP}x bar assumes >= {MIN_CPUS} real cores",
            file=sys.stderr,
        )
        return 0
    if speedup < TARGET_SPEEDUP:
        print(
            f"FAIL: fleet speedup {speedup:.2f}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: fleet speedup {speedup:.2f}x >= {TARGET_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
