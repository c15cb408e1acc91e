"""E11 — the persistent mmap storage engine: warm restart + snapshot wire.

Two bars, both against the in-memory baseline the engine shipped with:

* **Warm restart.** The in-memory engine rebuilds every access index
  from base rows on process start — O(|D|) before the first covered
  query can be served. The mmap engine checkpoints index buckets to
  memory-mapped segment files and replays only the WAL tail on start,
  so a restart maps the segments (lazy per-bucket decode) and serves
  the first covered query immediately. Bar asserted here (full mode):
  warm time-to-first-result >= ``TARGET_RESTART`` x faster than the
  cold build on a 1M+-row dataset, and the store reports a warm start
  (no rebuild) with identical answers.

* **Snapshot traffic.** A maintenance-heavy workload forces the engine
  pool to re-ship its index snapshot to every worker after each
  version bump. The pickle wire re-serialises the full bucket map each
  time; the mmap engine exports one shared-memory block per snapshot
  key and ships only the block *name*, so workers attach zero-copy.
  Bar asserted here (all modes): >= ``TARGET_TRAFFIC`` x fewer bytes
  shipped for the same maintenance/query interleaving, same answers.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_persistence.py``) or standalone (``PYTHONPATH=src
python benchmarks/bench_persistence.py --quick`` is the CI smoke:
small dataset, correctness + traffic-ratio checks, no timing bar).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import BEAS
from repro.bench.reporting import format_table

from benchmarks.bench_columnar import DATES, build_event_db, event_access
from benchmarks.conftest import once, write_report

# full mode: 2500 keys x 2 dates x 200 rows -> 1_000_000 base rows
KEYS = 2500
ROWS_PER_BUCKET = 200
TARGET_RESTART = 5.0  # cold build / warm restart, time-to-first-result
TARGET_TRAFFIC = 10.0  # pickle bytes shipped / shm bytes shipped

QUICK_KEYS = 60
QUICK_ROWS_PER_BUCKET = 20

MAINTENANCE_ROUNDS = 8
POOL_WORKERS = 2


def first_query(keys: int) -> str:
    key_list = ", ".join(f"'k{ki:03d}'" for ki in range(min(keys, 40)))
    return (
        f"SELECT DISTINCT recnum, region FROM event "
        f"WHERE k IN ({key_list}) AND date = '{DATES[0]}'"
    )


# --------------------------------------------------------------------------- #
# bar 1: warm restart vs cold index build
# --------------------------------------------------------------------------- #
def measure_restart(keys: int, rows_per_bucket: int) -> dict:
    db = build_event_db(keys, rows_per_bucket)
    access = event_access(rows_per_bucket)
    sql = first_query(keys)
    directory = tempfile.mkdtemp(prefix="bench-persist-")
    try:
        # cold: build every index from base rows, checkpoint to segments
        start = time.perf_counter()
        cold = BEAS(db, access, storage="mmap", storage_dir=directory)
        cold_result = cold.session().run(sql)
        cold_seconds = time.perf_counter() - start
        cold_stats = cold.storage_stats()
        assert cold_stats is not None and not cold_stats.warm_start
        cold.close()

        # warm: map the checkpointed segments, replay the (empty) WAL
        start = time.perf_counter()
        warm = BEAS(db, access, storage="mmap", storage_dir=directory)
        warm_result = warm.session().run(sql)
        warm_seconds = time.perf_counter() - start
        warm_stats = warm.storage_stats()
        assert warm_stats is not None, "mmap engine reports no storage stats"
        assert warm_stats.warm_start, "second start in the same dir must be warm"
        assert warm_stats.segments_loaded >= 1
        assert warm_result.rows == cold_result.rows, "warm answer diverged"
        warm.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "base_rows": len(db.table("event")),
        "cold": cold_seconds,
        "warm": warm_seconds,
        "segments": warm_stats.segments_loaded,
    }


# --------------------------------------------------------------------------- #
# bar 2: snapshot bytes shipped, pickle wire vs shared-memory attach
# --------------------------------------------------------------------------- #
def measure_traffic(keys: int, rows_per_bucket: int) -> dict:
    """Interleave inserts with pooled queries: every round bumps the
    table version, so every query re-installs the worker snapshot."""
    access = event_access(rows_per_bucket + MAINTENANCE_ROUNDS)
    sql = first_query(keys)
    shipped: dict[str, int] = {}
    answers: dict[str, list] = {}
    directory = tempfile.mkdtemp(prefix="bench-persist-shm-")
    try:
        for label, options in (
            ("pickle wire (memory engine)", {"storage": "memory"}),
            (
                "shm attach (mmap engine)",
                {"storage": "mmap", "storage_dir": directory},
            ),
        ):
            db = build_event_db(keys, rows_per_bucket)
            beas = BEAS(db, access, parallelism=POOL_WORKERS, **options)
            session = beas.session()
            rows = []
            for round_number in range(MAINTENANCE_ROUNDS):
                beas.insert(
                    "event",
                    [
                        (
                            "k000",
                            DATES[0],
                            f"mnt{round_number:06d}",
                            "r0",
                            round_number,
                        )
                    ],
                )
                result = session.run(sql, use_result_cache=False)
                rows = result.rows
            stats = beas.pool_stats()
            assert stats is not None, "parallelism >= 2 must start the pool"
            assert stats.snapshots_sent >= MAINTENANCE_ROUNDS
            shipped[label] = stats.snapshot_bytes_shipped
            answers[label] = sorted(rows)
            if "mmap" in str(options.get("storage")):
                assert stats.shm_attaches >= MAINTENANCE_ROUNDS, (
                    f"mmap engine fell back to the pickle wire "
                    f"({stats.shm_fallbacks} fallbacks)"
                )
            beas.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    (pickle_label, shm_label) = list(shipped)
    assert answers[pickle_label] == answers[shm_label], "shm answer diverged"
    return {
        "pickle_bytes": shipped[pickle_label],
        "shm_bytes": shipped[shm_label],
        "rounds": MAINTENANCE_ROUNDS,
    }


# --------------------------------------------------------------------------- #
def _report(restart: dict, traffic: dict) -> str:
    speedup = restart["cold"] / max(restart["warm"], 1e-9)
    ratio = traffic["pickle_bytes"] / max(traffic["shm_bytes"], 1)
    restart_rows = [
        ("cold build + first query", f"{restart['cold'] * 1000:.1f}", "1.00x"),
        (
            f"warm restart ({restart['segments']} segments mapped)",
            f"{restart['warm'] * 1000:.1f}",
            f"{speedup:.2f}x",
        ),
    ]
    traffic_rows = [
        ("pickle wire (memory engine)", f"{traffic['pickle_bytes']}", "1.00x"),
        (
            "shm attach (mmap engine)",
            f"{traffic['shm_bytes']}",
            f"{ratio:.1f}x fewer",
        ),
    ]
    return (
        f"E11 persistent storage — {restart['base_rows']} base rows\n\n"
        + format_table(
            ["time to first result", "ms", "speedup"], restart_rows
        )
        + f"\n\nsnapshot traffic — {traffic['rounds']} maintenance rounds, "
        f"{POOL_WORKERS} workers\n\n"
        + format_table(
            ["snapshot wire", "bytes shipped", "ratio"], traffic_rows
        )
    )


def run(keys: int = KEYS, rows_per_bucket: int = ROWS_PER_BUCKET) -> dict:
    restart = measure_restart(keys, rows_per_bucket)
    traffic = measure_traffic(
        min(keys, QUICK_KEYS), min(rows_per_bucket, QUICK_ROWS_PER_BUCKET)
    )
    text = _report(restart, traffic)
    print(text)
    write_report("bench_persistence.txt", text)
    return {
        "restart_speedup": restart["cold"] / max(restart["warm"], 1e-9),
        "traffic_ratio": traffic["pickle_bytes"] / max(traffic["shm_bytes"], 1),
    }


def test_persistence(benchmark):
    measured = once(benchmark, run)
    assert measured["traffic_ratio"] >= TARGET_TRAFFIC, (
        f"shm wire ships only {measured['traffic_ratio']:.1f}x fewer "
        f"snapshot bytes (target {TARGET_TRAFFIC}x)"
    )
    assert measured["restart_speedup"] >= TARGET_RESTART, (
        f"warm restart is only {measured['restart_speedup']:.2f}x faster "
        f"than the cold build (target {TARGET_RESTART}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset: correctness + traffic-ratio smoke, no "
        "restart timing bar (CI)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        measured = run(QUICK_KEYS, QUICK_ROWS_PER_BUCKET)
        if measured["traffic_ratio"] < TARGET_TRAFFIC:
            print(
                f"FAIL: shm wire ratio {measured['traffic_ratio']:.1f}x "
                f"< {TARGET_TRAFFIC}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK (quick smoke): warm restart {measured['restart_speedup']:.2f}x, "
            f"snapshot traffic {measured['traffic_ratio']:.1f}x fewer bytes"
        )
        return 0
    measured = run()
    failed = False
    if measured["traffic_ratio"] < TARGET_TRAFFIC:
        print(
            f"FAIL: shm ratio {measured['traffic_ratio']:.1f}x < "
            f"{TARGET_TRAFFIC}x",
            file=sys.stderr,
        )
        failed = True
    if measured["restart_speedup"] < TARGET_RESTART:
        print(
            f"FAIL: warm restart {measured['restart_speedup']:.2f}x < "
            f"{TARGET_RESTART}x",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"OK: warm restart {measured['restart_speedup']:.2f}x, snapshot "
        f"traffic {measured['traffic_ratio']:.1f}x fewer bytes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
