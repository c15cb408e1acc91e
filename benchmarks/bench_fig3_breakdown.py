"""E1 — Fig. 3: performance analysis of Q (Example 2) on TLC "20 GB".

The paper's panel reports, for Q on a 20 GB TLC instance: overall execution
time (BEAS 96.13 ms), acceleration ratios over PostgreSQL / MySQL / MariaDB
(1953x / 6562x / 5135x), the total number of tuples fetched, the number of
access constraints employed (3), and a per-operation cost breakdown.

We reproduce the *shape*: BEAS orders of magnitude faster than the
conventional engine, fetching a bounded number of tuples via exactly the
three constraints ψ3, ψ2, ψ1. There is one comparator, the in-process
conventional engine, measured; the paper's PostgreSQL / MySQL / MariaDB
ratios are not reproduced. The panel is produced on the '100 GB' instance
(the paper used 20 GB) so the gap sits well above Python timer noise; the
conventional engine is pre-warmed (statistics collection = offline
ANALYZE) before timing.
"""

from __future__ import annotations

import time

from repro.bench.reporting import format_table
from repro.workloads.tlc import query_by_name

from benchmarks.conftest import beas_for, dataset, few, once, write_report

SCALE = 100  # "100 GB" (shared with the Fig. 4 sweep's cache)

_times: dict[str, float] = {}
_extra: dict[str, object] = {}


def _note(key: str, seconds: float) -> None:
    """Track the minimum over measurement rounds (noise-robust)."""
    previous = _times.get(key)
    _times[key] = seconds if previous is None else min(previous, seconds)


def _q1_sql() -> str:
    return query_by_name(dataset(SCALE).params, "Q1").sql


def test_fig3_beas(benchmark):
    beas = beas_for(SCALE)
    sql = _q1_sql()
    decision = beas.check(sql)
    assert decision.covered
    assert [c.name for c in decision.constraints_used] == ["psi3", "psi2", "psi1"]

    session = beas.session()

    def run():
        t0 = time.perf_counter()
        result = session.run(sql, use_result_cache=False)
        _note("beas", time.perf_counter() - t0)
        return result

    result = few(benchmark, run, rounds=5)
    assert result.metrics.tuples_scanned == 0
    assert result.metrics.tuples_fetched <= decision.access_bound
    _extra["fetched"] = result.metrics.tuples_fetched
    _extra["bound"] = decision.access_bound
    _extra["constraints"] = len(decision.constraints_used)
    _extra["beas_ops"] = list(result.metrics.operations)
    _extra["rows"] = set(result.rows)
    benchmark.extra_info["tuples_fetched"] = result.metrics.tuples_fetched


def test_fig3_conventional(benchmark):
    engine = beas_for(SCALE).host_engine()
    engine.statistics()  # offline ANALYZE: not part of query time
    sql = _q1_sql()

    def run():
        t0 = time.perf_counter()
        result = engine.execute(sql)
        _note("conventional", time.perf_counter() - t0)
        return result

    result = few(benchmark, run, rounds=3)
    assert set(result.rows) == _extra["rows"], "conventional answers differ"
    _extra["conventional_scanned"] = result.metrics.tuples_scanned
    _extra["conventional_ops"] = list(result.metrics.operations)


def test_fig3_report(benchmark):
    """Assemble the Fig.-3 panel (runs last; trivial timed body)."""
    once(benchmark, lambda: None)
    beas_seconds = _times["beas"]
    rows = [
        (
            "BEAS",
            f"{beas_seconds * 1000:.2f} ms",
            "1x",
            f"fetched {_extra['fetched']} (bound {_extra['bound']})",
        )
    ]
    seconds = _times["conventional"]
    rows.append(
        (
            "conventional",
            f"{seconds * 1000:.2f} ms",
            f"{seconds / beas_seconds:.0f}x slower",
            f"scanned {_extra['conventional_scanned']}",
        )
    )
    lines = [
        f"Fig. 3 — performance analysis of Q (Example 2), TLC scale {SCALE} "
        f"('{SCALE} GB'; the paper's panel used 20 GB)",
        f"paper: BEAS 96.13 ms; PostgreSQL/MySQL/MariaDB 1953x/6562x/5135x slower",
        f"access constraints employed: {_extra['constraints']} (psi3, psi2, psi1)",
        "",
        format_table(("engine", "time", "vs BEAS", "data accessed"), rows),
        "",
        "-- BEAS per-operation breakdown --",
    ]
    for op in _extra["beas_ops"]:
        lines.append(
            f"  {op.label}: {op.tuples_in} -> {op.tuples_out} rows, "
            f"{op.seconds * 1000:.3f} ms"
        )
    lines.append("-- conventional per-operation breakdown --")
    for op in _extra["conventional_ops"]:
        lines.append(
            f"  {op.label}: {op.tuples_in} -> {op.tuples_out} rows, "
            f"{op.seconds * 1000:.3f} ms"
        )
    report = "\n".join(lines)
    write_report("fig3_breakdown.txt", report)

    # reproduction shape: BEAS is far faster than the conventional engine
    assert _times["conventional"] / beas_seconds > 3
