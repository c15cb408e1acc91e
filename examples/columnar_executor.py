#!/usr/bin/env python3
"""Columnar execution: the same bounded plans, with a batch fetch.

The BE Plan Executor has two modes sharing identical plans, bounds, and
answers, and differing only in the fetch:

* ``executor="row"`` (default) — tuple-at-a-time intermediates;
* ``executor="columnar"`` — per-attribute columns with a selection
  vector: a fetch gathers index postings for a whole key batch and a
  selection only shrinks the selection vector (``engine.columnar``).
  The filter predicate and the tail operators (aggregate, sort,
  project, distinct, limit) are the row mode's own, run on the live
  rows.

This walkthrough:

1. builds a synthetic event table (50k rows) under one access
   constraint;
2. runs a selective fetch/select/aggregate query in both modes and
   shows the metrics side by side — same rows, same ``tuples_fetched``
   and the same per-operation counts; the columnar run also reports
   ``rows_per_batch`` and how many batches its fetch inputs made, and
   the wall-clock ratio (neither mode wins by much);
3. flips the mode per query through the session
   (``session.run(sql, executor="columnar")``) without rebuilding
   anything.

Run:  python examples/columnar_executor.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import random

from repro import (
    AccessConstraint,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionOptions,
    Session,
    TableSchema,
)

# ---- 1. a 50k-row event table under one (k, date) constraint -------------
rng = random.Random(11)
schema = DatabaseSchema(
    [
        TableSchema(
            "event",
            [
                ("k", DataType.STRING),
                ("date", DataType.STRING),
                ("recnum", DataType.STRING),
                ("region", DataType.STRING),
            ],
            keys=[("recnum",)],
        )
    ]
)
db = Database(schema)
table = db.table("event")
n = 0
for ki in range(250):
    for date in ("2016-06-01", "2016-06-02"):
        for _ in range(100):
            table.rows.append(
                (f"k{ki:03d}", date, f"rec{n}", f"r{rng.randrange(6)}")
            )
            n += 1
table.version = 1
access = AccessSchema(
    [
        AccessConstraint(
            "event", ["k", "date"], ["recnum", "region"], 150, name="by_key"
        )
    ]
)

key_list = ", ".join(f"'k{ki:03d}'" for ki in range(120))
SQL = (
    f"SELECT region, COUNT(*) AS events FROM event "
    f"WHERE k IN ({key_list}) AND date = '2016-06-01' "
    f"AND region IN ('r0', 'r1', 'r2') GROUP BY region"
)

# ---- 2. the same plan, both modes ----------------------------------------
print("== one bounded plan, two executors ==")
results = {}
for mode in ("row", "columnar"):
    session = Session(
        db, access,
        options=ExecutionOptions(executor=mode, rows_per_batch=4096),
    )
    result = session.run(SQL)
    results[mode] = result
    metrics = result.metrics
    print(
        f"{mode:>8}: {len(result.rows)} groups in {metrics.seconds * 1000:6.1f} ms"
        f" — fetched {metrics.tuples_fetched} partial tuples"
        + (
            f", {metrics.batches} fetch-input batches of <= {metrics.rows_per_batch} rows"
            if mode == "columnar"
            else ""
        )
    )

assert results["row"].rows == results["columnar"].rows
assert (
    results["row"].metrics.tuples_fetched
    == results["columnar"].metrics.tuples_fetched
)
assert [
    (op.label, op.tuples_in, op.tuples_out) for op in results["row"].metrics.operations
] == [
    (op.label, op.tuples_in, op.tuples_out)
    for op in results["columnar"].metrics.operations
]
print(
    "answers and tuple-access accounting are identical across modes, "
    "per-operation counts included"
)

ratio = results["row"].metrics.seconds / max(
    results["columnar"].metrics.seconds, 1e-9
)
print(f"row / columnar wall-clock on this run: {ratio:.2f}x")

# ---- 3. per-query mode selection through the serving layer ---------------
print("\n== per-query selection through the serving layer ==")
session = Session(db, access)  # default mode: row
query = session.query(SQL)
row_run = query.run(use_result_cache=False)
columnar_run = query.run(use_result_cache=False, executor="columnar")
assert row_run.rows == columnar_run.rows
print(
    "query.run()                          ->",
    f"row fetches, {row_run.metrics.batches} batches",
)
print(
    'query.run(executor="columnar")      ->',
    f"columnar fetches, {columnar_run.metrics.batches} batches",
)
print("\nmode switching is per query; caches and plans are shared")
