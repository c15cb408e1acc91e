"""E10 — pooled vs in-process bounded execution under multi-client load.

PR 3's columnar executor cut single-thread compute, but N concurrent
clients of an in-process BEAS still serialise on the GIL: aggregate
throughput stays ~flat as clients are added. The engine pool
(``repro.engine.pool``) executes each client's bounded plan on a worker
*process*, so CPU-bound clients scale with cores.

This bench drives ``CLIENTS`` threads, each executing a stream of
selective fetch + GROUP-BY-aggregate queries (the bench_columnar
workload shape, distinct key batches per client so the runs are real
work, result caching off) against

* the in-process columnar executor (``parallelism=1``), and
* the engine pool at ``WORKERS = 4`` (whole-plan dispatch).

The acceptance bar asserted here: >= 2x aggregate throughput for the
pooled configuration. That bar assumes the 4 workers actually get
cores: on a host exposing fewer than ``WORKERS`` CPUs the ceiling is
roughly the CPU count minus scheduling overhead, so the assertion is
skipped (with a loud message) below that — correctness of the
comparison is still checked everywhere.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_parallel.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_parallel.py --quick``) — the latter is the CI smoke
(small dataset, crash + equality detection, no perf assertion).
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import BEAS
from repro.bench.reporting import format_table

from benchmarks.bench_columnar import (
    DATES,
    REGIONS,
    build_event_db,
    event_access,
)
from benchmarks.conftest import once, write_report

KEYS = 240
ROWS_PER_BUCKET = 120  # -> 57 600 base rows
CLIENTS = 4
WORKERS = 4
QUERIES_PER_CLIENT = 6
KEYS_PER_QUERY = 60
TARGET_SPEEDUP = 2.0

QUICK_KEYS = 40
QUICK_ROWS_PER_BUCKET = 20
QUICK_QUERIES_PER_CLIENT = 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def client_queries(client: int, keys: int, queries: int) -> list[str]:
    """Distinct per-client key batches: every execute is real engine work
    (no result-cache shortcut, different constants per client)."""
    per_query = min(KEYS_PER_QUERY, keys)
    region_list = ", ".join(f"'r{i}'" for i in range(REGIONS // 2))
    sqls = []
    for q in range(queries):
        start = (client * 31 + q * 17) % keys
        key_list = ", ".join(
            f"'k{(start + i) % keys:03d}'" for i in range(per_query)
        )
        sqls.append(
            f"SELECT region, COUNT(*) AS c, SUM(amount) AS s FROM event "
            f"WHERE k IN ({key_list}) AND date = '{DATES[q % len(DATES)]}' "
            f"AND region IN ({region_list}) GROUP BY region"
        )
    return sqls


def drive_clients(beas: BEAS, workloads: list[list[str]]) -> float:
    """Run every client's query stream on its own thread; returns the
    wall-clock seconds for the whole fleet to finish."""
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
    db = build_event_db(keys, rows_per_bucket)
    access = event_access(rows_per_bucket)
    inproc = BEAS(db, access, executor="columnar", parallelism=1)
    pooled = BEAS(db, access, executor="columnar", parallelism=WORKERS)

    workloads = [
        client_queries(client, keys, queries_per_client)
        for client in range(CLIENTS)
    ]
    total_queries = sum(len(w) for w in workloads)

    # correctness first: both placements answer every query identically
    for sql in workloads[0]:
        a = inproc.session().run(sql, use_result_cache=False)
        b = pooled.session().run(sql, use_result_cache=False)
        assert a.rows == b.rows, "pooled answer diverged"
        assert a.metrics.tuples_fetched == b.metrics.tuples_fetched
    # warm both (plans, statistics, worker snapshots)
    drive_clients(inproc, [w[:1] for w in workloads])
    drive_clients(pooled, [w[:1] for w in workloads])

    inproc_seconds = []
    pooled_seconds = []
    for _ in range(repeats):
        inproc_seconds.append(drive_clients(inproc, workloads))
        pooled_seconds.append(drive_clients(pooled, workloads))
    pool_stats = pooled.pool_stats()
    pooled.close()

    return {
        "base_rows": len(db.table("event")),
        "total_queries": total_queries,
        "inproc": statistics.median(inproc_seconds),
        "pooled": statistics.median(pooled_seconds),
        "pool": pool_stats,
    }


def _report(measured: dict, repeats: int) -> str:
    total = measured["total_queries"]
    inproc, pooled = measured["inproc"], measured["pooled"]
    speedup = inproc / max(pooled, 1e-9)
    rows = [
        (
            "in-process columnar",
            f"{inproc * 1000:.1f}",
            f"{total / max(inproc, 1e-9):.1f}",
            "1.00x",
        ),
        (
            f"engine pool ({WORKERS} workers)",
            f"{pooled * 1000:.1f}",
            f"{total / max(pooled, 1e-9):.1f}",
            f"{speedup:.2f}x",
        ),
    ]
    table = format_table(
        ["configuration", "fleet ms", "queries/s", "speedup"], rows
    )
    pool = measured["pool"]
    pool_line = f"\n{pool.describe()}" if pool is not None else ""
    return (
        f"E10 parallel engine pool — {measured['base_rows']} base rows, "
        f"{CLIENTS} clients x {total // CLIENTS} queries, {repeats} repeats, "
        f"{_cpus()} CPUs\n\n" + table + pool_line
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
    write_report("bench_parallel.txt", text)
    return measured["inproc"] / max(measured["pooled"], 1e-9)


def test_parallel_speedup(benchmark):
    if _cpus() < WORKERS:
        import pytest

        pytest.skip(
            f"host exposes {_cpus()} CPUs: the >= {TARGET_SPEEDUP}x bar "
            f"assumes the {WORKERS} workers get real cores (CI runs this "
            "on 4-vCPU runners)"
        )
    speedup = once(benchmark, run)
    assert speedup >= TARGET_SPEEDUP, (
        f"engine pool is only {speedup:.2f}x vs in-process columnar "
        f"(target {TARGET_SPEEDUP}x at {WORKERS} workers)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset, crash + equality smoke only — no perf "
        "assertion (CI)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        speedup = run(
            QUICK_KEYS, QUICK_ROWS_PER_BUCKET, QUICK_QUERIES_PER_CLIENT,
            repeats=1,
        )
        print(f"OK (quick smoke): pooled/in-process agree; speedup {speedup:.2f}x")
        return 0
    speedup = run()
    if _cpus() < WORKERS:
        print(
            f"NOTE: {_cpus()}-CPU host; measured {speedup:.2f}x, the "
            f">= {TARGET_SPEEDUP}x bar assumes {WORKERS} real cores",
            file=sys.stderr,
        )
        return 0
    if speedup < TARGET_SPEEDUP:
        print(
            f"FAIL: pooled speedup {speedup:.2f}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: pooled speedup {speedup:.2f}x >= {TARGET_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
