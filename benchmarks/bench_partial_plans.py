"""E5 — partially bounded plans (BE Plan Optimizer, paper §3).

Two non-covered queries exercise the optimizer:

* **Q11** (built-in) joins ``data_usage`` (no access constraints) with
  ``business``; the bounded prefix replaces the (small) business scan.
* **Q11b** joins ``device`` (no constraints, small) with ``call`` (large,
  covered by ψ1): "brands of devices owned by numbers that p0 called on
  d0". Here the prefix replaces the *large* call scan, which is where
  partially bounded plans pay off most — the shape the paper's §3
  describes ("speeds up the evaluation of Q by capitalizing on the
  indices of A").
"""

from __future__ import annotations

import time

from repro.bench.reporting import format_table
from repro.workloads.tlc import query_by_name

from benchmarks.conftest import beas_for, dataset, few, once, write_report

SCALE = 50

_rows: list[tuple] = []
_checks: list[tuple] = []


def _q11b_sql() -> str:
    params = dataset(SCALE).params
    return f"""
        SELECT DISTINCT dv.brand FROM device dv, call c
        WHERE c.pnum = '{params.p0}' AND c.date = '{params.d0}'
          AND dv.pnum = c.recnum
    """


def _run_pair(benchmark, name: str, sql: str):
    beas = beas_for(SCALE)
    session = beas.session()
    engine = beas.host_engine()
    engine.statistics()  # offline ANALYZE

    state: dict[str, object] = {}

    def run():
        t0 = time.perf_counter()
        partial = session.run(sql, use_result_cache=False)
        partial_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        conventional = engine.execute(sql)
        conventional_seconds = time.perf_counter() - t0
        state["partial"] = (partial, partial_seconds)
        state["conventional"] = (conventional, conventional_seconds)
        return partial

    result = few(benchmark, run, rounds=3)
    assert result.mode.value == "partial", name
    partial, partial_seconds = state["partial"]
    conventional, conventional_seconds = state["conventional"]
    assert set(partial.rows) == set(conventional.rows)
    _rows.append(
        (
            name, "partially bounded", f"{partial_seconds * 1000:.2f} ms",
            partial.metrics.tuples_scanned, partial.metrics.tuples_fetched,
        )
    )
    _rows.append(
        (
            name, "conventional", f"{conventional_seconds * 1000:.2f} ms",
            conventional.metrics.tuples_scanned,
            conventional.metrics.tuples_fetched,
        )
    )
    _checks.append(
        (
            name,
            partial.metrics.tuples_scanned,
            conventional.metrics.tuples_scanned,
            partial_seconds,
            conventional_seconds,
        )
    )


def test_q11_small_covered_side(benchmark):
    _run_pair(benchmark, "Q11", query_by_name(dataset(SCALE).params, "Q11").sql)


def test_q11b_large_covered_side(benchmark):
    _run_pair(benchmark, "Q11b", _q11b_sql())


def test_partial_report(benchmark):
    once(benchmark, lambda: None)
    report = "\n".join(
        [
            f"E5 — partially bounded plans at scale {SCALE}",
            "Q11: covered side is small (business);"
            " Q11b: covered side is large (call)",
            "",
            format_table(
                ("query", "plan", "time", "tuples scanned", "tuples fetched"),
                _rows,
            ),
        ]
    )
    write_report("partial_plans.txt", report)

    for name, p_scanned, c_scanned, p_seconds, c_seconds in _checks:
        # every partial plan scans strictly less base data
        assert p_scanned < c_scanned, name
    # and with a large covered relation the speedup is substantial
    q11b = next(check for check in _checks if check[0] == "Q11b")
    assert q11b[4] > 3 * q11b[3], "Q11b partial should be much faster"
