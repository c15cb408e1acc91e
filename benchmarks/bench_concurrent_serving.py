"""E9 — sharded serving under concurrent clients.

The ``BEAS`` engine partitions locks and maintenance by table. Measured
here over a synthetic star of disjoint tables (8 identical relations,
one covered point query each), through one Session:

* **pure reads** — 8 client threads, each hammering its own table's
  cached query (the GIL serialises the compute, so this is an overhead
  figure, not a parallelism one);
* **reads + disjoint maintenance** — 6 reader threads on 6 tables while
  2 writer threads continuously batch-insert/delete on 2 *other*
  tables. The gate is the property that makes sharding pay, exactly:
  the readers' shards and the schema lock record no contended
  acquisition and no wait;
* **maintenance stall** — one big batch lands in one table while a
  reader times reads of another: the worst observed read latency must
  not track the batch duration (no cross-table stall).

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_concurrent_serving.py``) or standalone
(``PYTHONPATH=src python benchmarks/bench_concurrent_serving.py
[--quick]``) — the latter is the CI smoke. Throughput is reported, not
gated: it swings widely on a small host under the interpreter lock.
"""

from __future__ import annotations

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
    Database,
    DatabaseSchema,
    DataType,
    Session,
    TableSchema,
)
from repro.bench.reporting import format_table

from benchmarks.conftest import write_report

TABLES = 8
ROWS_PER_TABLE = 1_000
KEYS = 50  # distinct k values per table -> bucket size 20 (bound 64)
CLIENTS = 8

_WRITER_BATCH = 400


def synthetic_db() -> tuple[Database, AccessSchema]:
    """8 disjoint identical tables, each with one access constraint."""
    tables = [
        TableSchema(
            f"t{i}",
            [
                ("id", DataType.INT),
                ("k", DataType.STRING),
                ("v", DataType.STRING),
                ("grp", DataType.STRING),
            ],
            keys=[("id",)],
        )
        for i in range(TABLES)
    ]
    db = Database(DatabaseSchema(tables, name="star"), name="star")
    for i in range(TABLES):
        for row_id in range(ROWS_PER_TABLE):
            db.insert(
                f"t{i}",
                (
                    row_id,
                    f"k{row_id % KEYS:03d}",
                    f"v{row_id}",
                    f"g{row_id % 7}",
                ),
            )
    schema = AccessSchema(
        [
            AccessConstraint(
                f"t{i}", ["k"], ["v", "grp"], 64, name=f"psi_t{i}"
            )
            for i in range(TABLES)
        ],
        name="star-schema",
    )
    return db, schema


def query_for(table_index: int) -> str:
    return f"SELECT v, grp FROM t{table_index} WHERE k = 'k007'"


def make_session() -> Session:
    db, schema = synthetic_db()
    return Session(db, schema)


def _warm(session: Session) -> None:
    for i in range(TABLES):
        session.run(query_for(i))
        session.run(query_for(i))  # second sighting admits


def _run_clients(workers) -> float:
    """Start the thread targets together; returns elapsed wall seconds."""
    barrier = threading.Barrier(len(workers) + 1)
    threads = [
        threading.Thread(target=worker, args=(barrier,)) for worker in workers
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


# --------------------------------------------------------------------------- #
# scenario 1: pure disjoint reads
# --------------------------------------------------------------------------- #
def measure_pure_reads(session: Session, duration: float) -> float:
    """Aggregate cached-read ops/s: one client per table."""
    _warm(session)
    counts = [0] * CLIENTS
    deadline = [0.0]

    def reader(index: int):
        def run(barrier: threading.Barrier) -> None:
            query = query_for(index % TABLES)
            barrier.wait()
            while time.perf_counter() < deadline[0]:
                session.run(query)
                counts[index] += 1

        return run

    barrier = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(target=reader(i), args=(barrier,))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + duration + 60  # armed below
    barrier.wait()
    deadline[0] = time.perf_counter() + duration
    for thread in threads:
        thread.join()
    return sum(counts) / duration


# --------------------------------------------------------------------------- #
# scenario 2: disjoint reads + disjoint maintenance (the acceptance bar)
# --------------------------------------------------------------------------- #
def measure_reads_under_maintenance(
    session: Session, duration: float
) -> float:
    """Aggregate read ops/s: 6 readers on t0..t5, 2 writers on t6/t7."""
    _warm(session)
    reader_count = CLIENTS - 2
    counts = [0] * reader_count
    deadline = [0.0]

    def reader(index: int):
        def run(barrier: threading.Barrier) -> None:
            query = query_for(index)  # tables t0..t5: never written
            barrier.wait()
            while time.perf_counter() < deadline[0]:
                session.run(query)
                counts[index] += 1

        return run

    def writer(table_index: int, lane: int):
        def run(barrier: threading.Barrier) -> None:
            table = f"t{table_index}"
            barrier.wait()
            batch_id = 0
            while time.perf_counter() < deadline[0]:
                rows = [
                    (
                        1_000_000 + lane * 100_000 + batch_id * 1_000 + i,
                        f"w{lane}-{batch_id}-{i}",  # fresh keys: bucket of 1
                        "vw",
                        "gw",
                    )
                    for i in range(_WRITER_BATCH)
                ]
                session.insert(table, rows)
                session.delete(table, rows)
                batch_id += 1

        return run

    workers = [reader(i) for i in range(reader_count)] + [
        writer(TABLES - 2, 0),
        writer(TABLES - 1, 1),
    ]
    barrier = threading.Barrier(len(workers) + 1)
    threads = [
        threading.Thread(target=worker, args=(barrier,)) for worker in workers
    ]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + duration + 60
    barrier.wait()
    deadline[0] = time.perf_counter() + duration
    for thread in threads:
        thread.join()
    return sum(counts) / duration


def reader_lock_contention(before, after) -> dict[str, tuple[int, float]]:
    """Per lock, the contended acquisitions and seconds waited between
    two ``stats()`` snapshots, on the schema lock and scenario 2's
    reader tables: nothing write-locks them, so both are exactly 0."""

    def locks(stats):
        held = {f"t{i}": stats.shards[f"t{i}"].lock for i in range(CLIENTS - 2)}
        held["schema"] = stats.schema_lock
        return held

    old, new = locks(before), locks(after)
    return {
        name: (
            lock.contended_acquisitions - old[name].contended_acquisitions,
            lock.wait_seconds - old[name].wait_seconds,
        )
        for name, lock in new.items()
    }


# --------------------------------------------------------------------------- #
# scenario 3: one big batch must not stall reads of another table
# --------------------------------------------------------------------------- #
def measure_maintenance_stall(
    session: Session, batch_rows: int
) -> tuple[float, float]:
    """(batch seconds, worst concurrent read seconds of another table)."""
    _warm(session)
    rows = [
        (2_000_000 + i, f"s-{i}", "vs", "gs") for i in range(batch_rows)
    ]
    batch_seconds = [0.0]
    started = threading.Event()

    def maintain() -> None:
        started.set()
        start = time.perf_counter()
        session.insert(f"t{TABLES - 1}", rows)
        batch_seconds[0] = time.perf_counter() - start

    writer = threading.Thread(target=maintain)
    latencies: list[float] = []
    writer.start()
    started.wait()
    while writer.is_alive():
        start = time.perf_counter()
        session.run(query_for(0))
        latencies.append(time.perf_counter() - start)
    writer.join()
    session.delete(f"t{TABLES - 1}", rows)
    return batch_seconds[0], max(latencies) if latencies else 0.0


# --------------------------------------------------------------------------- #
def run(
    duration: float = 2.0, stall_rows: int = 20_000
) -> tuple[bool, dict[str, tuple[int, float]]]:
    """Measure, print, persist; returns (stall bounded?, scenario 2's
    reader-lock contention)."""
    with make_session() as session:
        pure = measure_pure_reads(session, duration)
        before = session.stats()
        mixed = measure_reads_under_maintenance(session, duration)
        contention = reader_lock_contention(before, session.stats())
        batch_s, worst_read_s = measure_maintenance_stall(session, stall_rows)
    rows = [
        ("pure disjoint reads (8 threads)", f"{pure:,.0f} ops/s"),
        ("reads + disjoint maintenance (6r+2w)", f"{mixed:,.0f} ops/s"),
        (
            "worst cross-table read stall",
            f"{worst_read_s * 1000:.1f} ms (batch {batch_s * 1000:.0f} ms)",
        ),
    ]
    text = (
        f"E9 concurrent serving — {TABLES} disjoint tables x "
        f"{ROWS_PER_TABLE} rows, {CLIENTS} client threads, "
        f"{duration:.1f}s per scenario\n\n"
        + format_table(["scenario", "measured"], rows)
    )
    print(text)
    write_report("bench_concurrent_serving.txt", text)
    return _stall_is_bounded(batch_s, worst_read_s), contention


def _stall_is_bounded(measured_batch: float, worst_read: float) -> bool:
    return worst_read < max(0.05, measured_batch / 4)


def check(duration: float, stall_rows: int) -> int:
    stall_ok, contention = run(duration, stall_rows)
    contended = {name: got for name, got in contention.items() if got != (0, 0.0)}
    if contended:
        print(
            f"FAIL: reads of tables no one writes waited on a lock under "
            f"disjoint maintenance (contended, seconds): {contended}",
            file=sys.stderr,
        )
        return 1
    if not stall_ok:
        print(
            "FAIL: reads still stall behind maintenance on another table",
            file=sys.stderr,
        )
        return 1
    print(
        "OK: readers' shards and the schema lock never contended; "
        "cross-table stall bounded"
    )
    return 0


def test_disjoint_reads_never_contend(benchmark):
    from benchmarks.conftest import once

    _, contention = once(benchmark, lambda: run(duration=1.5))
    assert all(got == (0, 0.0) for got in contention.values()), contention


def test_maintenance_does_not_stall_sharded_reads():
    with make_session() as session:
        batch_s, worst_read_s = measure_maintenance_stall(session, 20_000)
    assert _stall_is_bounded(batch_s, worst_read_s), (
        f"a read of t0 stalled {worst_read_s * 1000:.1f} ms behind a "
        f"{batch_s * 1000:.0f} ms batch on t{TABLES - 1}"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter scenarios and a smaller stall batch (the CI smoke)",
    )
    args = parser.parse_args(argv)
    duration = 0.8 if args.quick else 2.0
    stall_rows = 8_000 if args.quick else 20_000
    return check(duration, stall_rows)


if __name__ == "__main__":
    sys.exit(main())
