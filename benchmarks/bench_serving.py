"""E8 — the prepared-query serving layer's repeated-query speedup.

The serving layer amortises parse + normalize + BE Checker cost behind
prepared statements and caches. Reported, for a repeated covered query
(the paper's Example 2 / TLC Q1):

* cold — the bare engine: parse + BE Checker (``BEAS.check``) + the
  engine entry (``BEAS.evaluate``) on every call, no serving cache;
* prepared, result cache off — pinned decision/plan, bounded execution;
* prepared + result cache — the steady-state serving path;
* a fresh binding of the same template (plan re-check, no re-parse).

The acceptance bar asserted here: the prepared/cached path answers a
repeated covered query with a median latency at least 5x better than
the cold engine path.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_serving.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_serving.py --quick``) — the latter is the CI smoke.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import Decision
from repro.bench.reporting import format_table
from repro.workloads.tlc import tlc_queries

from benchmarks.conftest import beas_for, dataset, once, write_report

SCALE = 5
TARGET_SPEEDUP = 5.0

_rows: list[tuple] = []


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_serving(scale: int, repeats: int) -> dict[str, float]:
    """Median per-call latency of each serving path for TLC Q1."""
    beas = beas_for(scale)
    ds = dataset(scale)
    q1 = tlc_queries(ds.params)[0]
    session = beas.session()
    prepared = session.query(q1.sql, name="bench-q1")

    def run_cold():
        return beas.evaluate(q1.sql, Decision(beas.check(q1.sql), "fresh", 0), session.options)

    mode, expected = run_cold()  # warms statistics, pins nothing
    assert mode.value == "bounded"

    cold = _median_seconds(run_cold, repeats)

    prepared.run(use_result_cache=False)  # pin the decision
    pinned = _median_seconds(
        lambda: prepared.run(use_result_cache=False), repeats
    )

    prepared.run()  # populate the result cache
    cached = _median_seconds(lambda: prepared.run(), repeats)

    # a fresh binding per call: substitution + checker (decision cache
    # misses on the first sight of each binding, hits afterwards)
    dates = [f"2016-06-{2 + (i % 25):02d}" for i in range(repeats)]
    rebind = _median_seconds(
        lambda i=iter(dates): prepared.bind({"call.date": next(i)}).run(),
        repeats,
    )

    sanity = prepared.run()
    assert sorted(sanity.rows) == sorted(expected.rows)
    return {
        "cold": cold,
        "pinned": pinned,
        "cached": cached,
        "rebind": rebind,
        "stats": session.stats(),
    }


def _report(measured: dict, scale: int, repeats: int) -> str:
    cold = measured["cold"]
    rows = [
        ("cold engine (check + evaluate)", cold * 1000, 1.0),
        ("prepared, no result cache", measured["pinned"] * 1000,
         cold / max(measured["pinned"], 1e-9)),
        ("prepared + result cache", measured["cached"] * 1000,
         cold / max(measured["cached"], 1e-9)),
        ("fresh binding each call", measured["rebind"] * 1000,
         cold / max(measured["rebind"], 1e-9)),
    ]
    table = format_table(
        ["path", "median ms", "speedup vs cold"],
        [(name, f"{ms:.3f}", f"{speedup:.1f}x") for name, ms, speedup in rows],
    )
    stats = measured["stats"]
    return (
        f"E8 serving layer — TLC scale {scale}, {repeats} repeats\n\n"
        + table
        + "\n\n"
        + stats.describe()
    )


def run(scale: int = SCALE, repeats: int = 30) -> float:
    """Measure, print, persist; returns the cached-path speedup."""
    measured = measure_serving(scale, repeats)
    text = _report(measured, scale, repeats)
    print(text)
    write_report("bench_serving.txt", text)
    return measured["cold"] / max(measured["cached"], 1e-9)


def test_serving_speedup(benchmark):
    speedup = once(benchmark, run)
    assert speedup >= TARGET_SPEEDUP, (
        f"prepared/cached path is only {speedup:.1f}x vs cold "
        f"(target {TARGET_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scale-1 dataset, fewer repeats (the CI smoke)",
    )
    args = parser.parse_args(argv)
    scale = 1 if args.quick else SCALE
    repeats = 15 if args.quick else 30
    speedup = run(scale, repeats)
    if speedup < TARGET_SPEEDUP:
        print(
            f"FAIL: cached speedup {speedup:.1f}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: cached speedup {speedup:.1f}x >= {TARGET_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
