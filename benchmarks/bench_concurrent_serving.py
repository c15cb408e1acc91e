"""E9 — sharded serving under concurrent clients vs the single lock.

The sharded ``BEASServer`` partitions locks, result-cache slices, and
maintenance by table. Measured here over a synthetic star of disjoint
tables (8 identical relations, one covered point query each):

* **pure reads** — 8 client threads, each hammering its own table's
  cached query: sharding removes the global-lock handoff from the
  steady-state read path (the GIL still serialises the compute, so this
  is an overhead comparison, not a parallelism one);
* **reads + disjoint maintenance** — 6 reader threads on 6 tables while
  2 writer threads continuously batch-insert/delete on 2 *other*
  tables. Under the single lock every reader queues behind every
  multi-millisecond maintenance batch; sharded, they never meet. This
  is the acceptance scenario: aggregate read throughput must be
  **>= 3x** the baseline;
* **maintenance stall** — one big batch lands in one table while a
  reader times reads of another: the worst observed read latency must
  not track the batch duration (no cross-table stall).

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_concurrent_serving.py``) or standalone
(``PYTHONPATH=src python benchmarks/bench_concurrent_serving.py
[--quick]``) — the latter is the CI smoke.
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
    BEAS,
    AccessConstraint,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.bench.reporting import format_table
from repro.serving import BEASServer

from benchmarks.conftest import write_report

TABLES = 8
ROWS_PER_TABLE = 1_000
KEYS = 50  # distinct k values per table -> bucket size 20 (bound 64)
CLIENTS = 8
TARGET_READ_SPEEDUP = 3.0

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


def make_server(sharded: bool) -> BEASServer:
    db, schema = synthetic_db()
    return BEAS(db, schema).session(sharded=sharded).server


def _warm(server: BEASServer) -> None:
    for i in range(TABLES):
        server.execute(query_for(i))
        server.execute(query_for(i))  # second sighting admits


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
def measure_pure_reads(server: BEASServer, duration: float) -> float:
    """Aggregate cached-read ops/s: one client per table."""
    _warm(server)
    counts = [0] * CLIENTS
    deadline = [0.0]

    def reader(index: int):
        def run(barrier: threading.Barrier) -> None:
            query = query_for(index % TABLES)
            barrier.wait()
            while time.perf_counter() < deadline[0]:
                server.execute(query)
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
    server: BEASServer, duration: float
) -> float:
    """Aggregate read ops/s: 6 readers on t0..t5, 2 writers on t6/t7."""
    _warm(server)
    reader_count = CLIENTS - 2
    counts = [0] * reader_count
    deadline = [0.0]

    def reader(index: int):
        def run(barrier: threading.Barrier) -> None:
            query = query_for(index)  # tables t0..t5: never written
            barrier.wait()
            while time.perf_counter() < deadline[0]:
                server.execute(query)
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
                server.insert(table, rows)
                server.delete(table, rows)
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


# --------------------------------------------------------------------------- #
# scenario 3: one big batch must not stall reads of another table
# --------------------------------------------------------------------------- #
def measure_maintenance_stall(
    server: BEASServer, batch_rows: int
) -> tuple[float, float]:
    """(batch seconds, worst concurrent read seconds of another table)."""
    _warm(server)
    rows = [
        (2_000_000 + i, f"s-{i}", "vs", "gs") for i in range(batch_rows)
    ]
    batch_seconds = [0.0]
    started = threading.Event()

    def maintain() -> None:
        started.set()
        start = time.perf_counter()
        server.insert(f"t{TABLES - 1}", rows)
        batch_seconds[0] = time.perf_counter() - start

    writer = threading.Thread(target=maintain)
    latencies: list[float] = []
    writer.start()
    started.wait()
    while writer.is_alive():
        start = time.perf_counter()
        server.execute(query_for(0))
        latencies.append(time.perf_counter() - start)
    writer.join()
    server.delete(f"t{TABLES - 1}", rows)
    return batch_seconds[0], max(latencies) if latencies else 0.0


# --------------------------------------------------------------------------- #
def run(duration: float = 2.0, stall_rows: int = 20_000) -> tuple[float, bool]:
    """Measure, print, persist; returns (scenario-2 read speedup,
    sharded stall bounded?)."""
    measured: dict[str, dict[str, float]] = {}
    for label, sharded in (("single-lock", False), ("sharded", True)):
        server = make_server(sharded)
        pure = measure_pure_reads(server, duration)
        mixed = measure_reads_under_maintenance(server, duration)
        batch_s, worst_read_s = measure_maintenance_stall(server, stall_rows)
        measured[label] = {
            "pure": pure,
            "mixed": mixed,
            "batch_s": batch_s,
            "worst_read_s": worst_read_s,
        }

    base, shard = measured["single-lock"], measured["sharded"]
    pure_speedup = shard["pure"] / max(base["pure"], 1e-9)
    mixed_speedup = shard["mixed"] / max(base["mixed"], 1e-9)
    rows = [
        (
            "pure disjoint reads (8 threads)",
            f"{base['pure']:,.0f}",
            f"{shard['pure']:,.0f}",
            f"{pure_speedup:.1f}x",
        ),
        (
            "reads + disjoint maintenance (6r+2w)",
            f"{base['mixed']:,.0f}",
            f"{shard['mixed']:,.0f}",
            f"{mixed_speedup:.1f}x",
        ),
        (
            "worst cross-table read stall",
            f"{base['worst_read_s'] * 1000:.1f} ms "
            f"(batch {base['batch_s'] * 1000:.0f} ms)",
            f"{shard['worst_read_s'] * 1000:.1f} ms "
            f"(batch {shard['batch_s'] * 1000:.0f} ms)",
            "-",
        ),
    ]
    text = (
        f"E9 concurrent serving — {TABLES} disjoint tables x "
        f"{ROWS_PER_TABLE} rows, {CLIENTS} client threads, "
        f"{duration:.1f}s per scenario\n\n"
        + format_table(
            ["scenario", "single-lock ops/s", "sharded ops/s", "speedup"],
            rows,
        )
    )
    print(text)
    write_report("bench_concurrent_serving.txt", text)
    stall_ok = _stall_is_bounded(shard["batch_s"], shard["worst_read_s"])
    return mixed_speedup, stall_ok


def _stall_is_bounded(measured_batch: float, worst_read: float) -> bool:
    return worst_read < max(0.05, measured_batch / 4)


def check(duration: float, stall_rows: int) -> int:
    mixed_speedup, stall_ok = run(duration, stall_rows)
    if mixed_speedup < TARGET_READ_SPEEDUP:
        print(
            f"FAIL: read throughput under disjoint maintenance only "
            f"{mixed_speedup:.1f}x vs single lock "
            f"(target {TARGET_READ_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    if not stall_ok:
        print(
            "FAIL: sharded reads still stall behind maintenance on "
            "another table",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {mixed_speedup:.1f}x aggregate read throughput vs the "
        f"single-lock baseline (target {TARGET_READ_SPEEDUP}x); "
        f"cross-table stall bounded"
    )
    return 0


def test_concurrent_read_speedup(benchmark):
    from benchmarks.conftest import once

    speedup, _ = once(benchmark, lambda: run(duration=1.5))
    assert speedup >= TARGET_READ_SPEEDUP, (
        f"sharded read throughput under disjoint maintenance is only "
        f"{speedup:.1f}x the single-lock baseline "
        f"(target {TARGET_READ_SPEEDUP}x)"
    )


def test_maintenance_does_not_stall_sharded_reads():
    server = make_server(sharded=True)
    batch_s, worst_read_s = measure_maintenance_stall(server, 20_000)
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
        help="shorter scenarios, smaller stall batch (the CI smoke)",
    )
    args = parser.parse_args(argv)
    duration = 0.8 if args.quick else 2.0
    stall_rows = 8_000 if args.quick else 20_000
    return check(duration, stall_rows)


if __name__ == "__main__":
    sys.exit(main())
