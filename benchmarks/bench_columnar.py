"""E9 — row vs columnar bounded execution on a selective fetch workload.

The columnar executor (``executor="columnar"``) replaces row-tuple
intermediates with per-attribute column batches: fetches gather index
postings for a whole key batch and materialise output column by column,
selections only shrink a selection vector, and the tail aggregates
stream batches with cross-batch accumulators. This bench measures both
modes on the same bounded plans over a >= 100k-row synthetic event
table — a selective fetch (IN-list key batch) + selection + GROUP BY
aggregate, in three aggregate shapes — and reports the per-query medians.

The acceptance bar asserted here: the columnar executor answers the
fetch/select/aggregate workload with a median latency at least 2x better
than the row executor, with identical rows and identical
``tuples_fetched`` accounting.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_columnar.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_columnar.py --quick``) — the latter is the CI smoke
(small dataset, crash detection, no perf assertion).
"""

from __future__ import annotations

import random
import statistics
import sys
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

KEYS = 300  # distinct k values
DATES = ("2016-06-01", "2016-06-02")
ROWS_PER_BUCKET = 200  # rows per (k, date) pair -> 120 000 base rows
SELECTED_KEYS = 150  # IN-list width of the fetch key batch
REGIONS = 8
TARGET_SPEEDUP = 2.0

QUICK_KEYS = 40
QUICK_ROWS_PER_BUCKET = 25


def build_event_db(keys: int, rows_per_bucket: int) -> Database:
    """A synthetic event table conforming to one (k, date) constraint.

    ``recnum`` is the table key and appears in Y, so plans are bag-exact
    and duplicate-sensitive aggregates (COUNT(*), SUM) stay covered.
    """
    rng = random.Random(90_125)
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
    rows = []
    n = 0
    for ki in range(keys):
        for date in DATES:
            for _ in range(rows_per_bucket):
                rows.append(
                    (
                        f"k{ki:03d}",
                        date,
                        f"rec{n}",
                        f"r{rng.randrange(REGIONS)}",
                        rng.randrange(1000),
                    )
                )
                n += 1
    table = db.table("event")
    table.rows = rows  # bulk load: per-row insert() would dominate setup
    table.version = 1
    return db


def event_access(rows_per_bucket: int) -> AccessSchema:
    return AccessSchema(
        [
            AccessConstraint(
                "event",
                ["k", "date"],
                ["recnum", "region", "amount"],
                rows_per_bucket + 50,
                name="by_key",
            )
        ]
    )


def workload_queries(keys: int) -> list[tuple[str, str]]:
    selected = min(SELECTED_KEYS, keys)
    key_list = ", ".join(f"'k{ki:03d}'" for ki in range(selected))
    region_list = ", ".join(f"'r{i}'" for i in range(REGIONS // 2))
    shapes = [
        ("count", "COUNT(*)"),
        ("count-distinct", "COUNT(DISTINCT recnum)"),
        ("sum", "SUM(amount)"),
    ]
    return [
        (
            name,
            f"SELECT region, {agg} AS v FROM event "
            f"WHERE k IN ({key_list}) AND date = '{DATES[0]}' "
            f"AND region IN ({region_list}) GROUP BY region",
        )
        for name, agg in shapes
    ]


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure(keys: int, rows_per_bucket: int, repeats: int) -> dict:
    db = build_event_db(keys, rows_per_bucket)
    access = event_access(rows_per_bucket)
    row = BEAS(db, access, executor="row").session()
    columnar = BEAS(db, access, executor="columnar").session()

    results = []
    for name, sql in workload_queries(keys):
        # warm (plans, statistics)
        row_answer = row.run(sql, use_result_cache=False)
        columnar_answer = columnar.run(sql, use_result_cache=False)
        assert row_answer.mode.value == "bounded", name
        assert columnar_answer.rows == row_answer.rows, name
        assert (
            columnar_answer.metrics.tuples_fetched
            == row_answer.metrics.tuples_fetched
        ), name
        row_seconds = _median_seconds(
            lambda: row.run(sql, use_result_cache=False), repeats
        )
        columnar_seconds = _median_seconds(
            lambda: columnar.run(sql, use_result_cache=False), repeats
        )
        results.append(
            {
                "name": name,
                "row": row_seconds,
                "columnar": columnar_seconds,
                "fetched": row_answer.metrics.tuples_fetched,
                "batches": columnar_answer.metrics.batches,
            }
        )
    return {
        "base_rows": len(db.table("event")),
        "results": results,
    }


def _report(measured: dict, repeats: int) -> str:
    rows = [
        (
            entry["name"],
            f"{entry['row'] * 1000:.2f}",
            f"{entry['columnar'] * 1000:.2f}",
            f"{entry['row'] / max(entry['columnar'], 1e-9):.2f}x",
            str(entry["fetched"]),
            str(entry["batches"]),
        )
        for entry in measured["results"]
    ]
    table = format_table(
        ["workload", "row ms", "columnar ms", "speedup", "fetched", "batches"],
        rows,
    )
    return (
        f"E9 columnar executor — {measured['base_rows']} base rows, "
        f"{repeats} repeats per mode\n\n" + table
    )


def run(keys: int = KEYS, rows_per_bucket: int = ROWS_PER_BUCKET, repeats: int = 7) -> float:
    """Measure, print, persist; returns the minimum per-query speedup."""
    measured = measure(keys, rows_per_bucket, repeats)
    text = _report(measured, repeats)
    print(text)
    write_report("bench_columnar.txt", text)
    return min(
        entry["row"] / max(entry["columnar"], 1e-9)
        for entry in measured["results"]
    )


def test_columnar_speedup(benchmark):
    speedup = once(benchmark, run)
    assert speedup >= TARGET_SPEEDUP, (
        f"columnar executor is only {speedup:.2f}x vs row "
        f"(target {TARGET_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset, crash smoke only — no perf assertion (CI)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        speedup = run(QUICK_KEYS, QUICK_ROWS_PER_BUCKET, repeats=3)
        print(f"OK (quick smoke): columnar/row agree; speedup {speedup:.2f}x")
        return 0
    speedup = run()
    if speedup < TARGET_SPEEDUP:
        print(
            f"FAIL: columnar speedup {speedup:.2f}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: columnar speedup {speedup:.2f}x >= {TARGET_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
