#!/usr/bin/env python3
"""Parallel bounded execution: the engine pool walkthrough.

``BEAS(parallelism=N)`` (or ``BEAS_PARALLELISM=N``) attaches a
multiprocessing engine pool to the bounded pipeline: whole covered
plans execute on worker processes instead of the GIL-bound serving
thread. Workers hold a *warm catalog snapshot* (the access
indices, keyed by the table version vector), so after the first query
only the plan and the answer cross the process boundary; maintenance
bumps the version vector and the next pooled query re-ships a fresh
snapshot — a worker can never serve stale rows.

This walkthrough:

1. builds a synthetic event table (30k rows) under one access
   constraint;
2. answers the same query in-process and pooled and shows the metrics:
   identical rows and ``tuples_fetched``, plus the pool counters
   (workers, dispatched batches, wait time);
3. drives four concurrent client threads through both configurations —
   on a multi-core host the pooled fleet finishes ~cores-times faster;
4. inserts rows and shows the snapshot refresh in the pool stats.

Run:  python examples/parallel_pool.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import os
import random
import threading
import time

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)

# ---- 1. a 30k-row event table under one (k, date) constraint -------------
rng = random.Random(23)
schema = DatabaseSchema(
    [
        TableSchema(
            "event",
            [
                ("k", DataType.STRING),
                ("date", DataType.STRING),
                ("recnum", DataType.STRING),
                ("region", DataType.STRING),
                ("amount", DataType.INT),
            ],
            keys=[("recnum",)],
        )
    ]
)
db = Database(schema)
table = db.table("event")
n = 0
for ki in range(150):
    for date in ("2016-06-01", "2016-06-02"):
        for _ in range(100):
            table.rows.append(
                (
                    f"k{ki:03d}", date, f"rec{n}",
                    f"r{rng.randrange(6)}", rng.randrange(500),
                )
            )
            n += 1
table.version = 1
access = AccessSchema(
    [
        AccessConstraint(
            "event",
            ["k", "date"],
            ["recnum", "region", "amount"],
            150,
            name="by_key",
        )
    ]
)


def query_for(client: int) -> str:
    start = client * 29 % 150
    key_list = ", ".join(f"'k{(start + i) % 150:03d}'" for i in range(80))
    return (
        f"SELECT region, COUNT(*) AS events, SUM(amount) AS total "
        f"FROM event WHERE k IN ({key_list}) AND date = '2016-06-01' "
        f"GROUP BY region"
    )


SQL = query_for(0)

# ---- 2. one query, both placements ---------------------------------------
print("== one bounded plan, in-process vs engine pool ==")
inproc = BEAS(db, access, executor="columnar", parallelism=1)
pooled = BEAS(db, access, executor="columnar", parallelism=4)
inproc_session = inproc.session()
pooled_session = pooled.session()

a = inproc_session.run(SQL, use_result_cache=False)
# first pooled run ships the warm snapshot
b = pooled_session.run(SQL, use_result_cache=False)
# steady state: only plan + answer cross processes
b = pooled_session.run(SQL, use_result_cache=False)
assert a.rows == b.rows
assert a.metrics.tuples_fetched == b.metrics.tuples_fetched
print(f"in-process: {len(a.rows)} groups, fetched {a.metrics.tuples_fetched}")
print(
    f"pooled    : {len(b.rows)} groups, fetched {b.metrics.tuples_fetched}, "
    f"workers={b.metrics.pool_workers}, "
    f"dispatched={b.metrics.pool_batches} batches, "
    f"pool wait {b.metrics.pool_wait_seconds * 1000:.2f} ms"
)
print("answers and tuple-access accounting are identical")

# ---- 3. four concurrent clients ------------------------------------------
print("\n== 4 concurrent client threads, 3 queries each ==")


def drive(session) -> float:
    barrier = threading.Barrier(4)

    def client(c: int) -> None:
        barrier.wait()
        for q in range(3):
            session.run(query_for(c * 3 + q), use_result_cache=False)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


drive(pooled_session)  # warm every worker's snapshot
inproc_s = drive(inproc_session)
pooled_s = drive(pooled_session)
print(f"in-process fleet: {inproc_s * 1000:7.1f} ms (GIL-serialised)")
print(f"pooled fleet    : {pooled_s * 1000:7.1f} ms")
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
print(
    f"speedup {inproc_s / max(pooled_s, 1e-9):.2f}x on {cpus} CPUs "
    "(scales with cores; ~1x on a single-CPU host)"
)

# ---- 4. maintenance refreshes the warm snapshots -------------------------
print("\n== maintenance: version vector keys the worker snapshots ==")
before = pooled.pool_stats()
pooled_session.insert(
    "event",
    [("k000", "2016-06-01", "rec-new-1", "r0", 42)],
)
fresh = pooled_session.run(SQL, use_result_cache=False)
after = pooled.pool_stats()
assert len(fresh.rows) == len(b.rows)  # same groups, one more event in r0
print(
    f"snapshots sent: {before.snapshots_sent} -> {after.snapshots_sent} "
    "(the insert bumped event's version; the next pooled query re-shipped "
    "the indices)"
)
print(after.describe())

pooled.close()
print("\npool closed; workers shut down deterministically")
