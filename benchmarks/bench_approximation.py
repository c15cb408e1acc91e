"""E8 — resource-bounded approximation (paper §2/§3).

For a covered query under shrinking tuple budgets, BEAS returns a sound
subset of the exact answer plus a deterministic recall lower bound
computed from the access schema. Reported: answers found, guaranteed vs
true recall, and tuples fetched per budget.
"""

from __future__ import annotations

from repro.bounded.approximation import BoundedApproximator
from repro.bench.reporting import format_table
from repro.workloads.tlc import query_by_name

from benchmarks.conftest import beas_for, dataset, few, once, write_report

SCALE = 50

_rows: list[tuple] = []


def _setup():
    beas = beas_for(SCALE)
    sql = query_by_name(dataset(SCALE).params, "Q1").sql
    decision = beas.check(sql)
    exact = beas.session().run(sql, use_result_cache=False)
    return beas, sql, decision, set(exact.rows), exact.metrics.tuples_fetched


def test_approximation_budget_sweep(benchmark):
    beas, sql, decision, exact_rows, exact_fetched = _setup()
    approximator = BoundedApproximator(beas.catalog)
    budgets = [
        max(1, exact_fetched // 100),
        max(1, exact_fetched // 10),
        max(1, exact_fetched // 2),
        exact_fetched,
    ]

    def run():
        return [approximator.execute(decision.plan, budget=b) for b in budgets]

    results = few(benchmark, run, rounds=3)
    _rows.clear()
    for budget, result in zip(budgets, results):
        found = set(result.rows)
        assert found <= exact_rows, "approximation must be sound"
        assert result.tuples_fetched <= budget
        true_recall = len(found) / len(exact_rows) if exact_rows else 1.0
        assert true_recall >= result.recall_lower_bound - 1e-12
        _rows.append(
            (
                budget,
                f"{len(found)}/{len(exact_rows)}",
                f"{result.recall_lower_bound:.4f}",
                f"{true_recall:.4f}",
                result.tuples_fetched,
                "yes" if result.complete else "no",
            )
        )


def test_approximation_granular_sweep(benchmark):
    """An IN-list query truncates per key, giving a gradual recall curve."""
    beas = beas_for(SCALE)
    ds = dataset(SCALE)
    pnums = ", ".join(f"'P{i:07d}'" for i in range(40))
    sql = (
        f"SELECT DISTINCT recnum, region FROM call "
        f"WHERE pnum IN ({pnums}) AND date = '{ds.params.d0}'"
    )
    decision = beas.check(sql)
    assert decision.covered
    exact = set(beas.session().run(sql, use_result_cache=False).rows)
    approximator = BoundedApproximator(beas.catalog)

    def run():
        curve = []
        for budget in (0, 4, 8, 16, 32, 64, 1000):
            result = approximator.execute(decision.plan, budget=budget)
            found = set(result.rows)
            assert found <= exact
            true_recall = len(found) / len(exact) if exact else 1.0
            assert true_recall >= result.recall_lower_bound - 1e-12
            curve.append((budget, len(found), result.recall_lower_bound, true_recall))
        return curve

    curve = few(benchmark, run, rounds=3)
    # recall is monotone in budget and reaches 1.0
    founds = [point[1] for point in curve]
    assert founds == sorted(founds)
    assert curve[-1][3] == 1.0
    _rows.append(("-- granular sweep (40-key IN list) --", "", "", "", "", ""))
    for budget, found, guaranteed, true_recall in curve:
        _rows.append(
            (budget, f"{found}/{len(exact)}", f"{guaranteed:.4f}",
             f"{true_recall:.4f}", "-", "-")
        )


def test_full_budget_is_exact(benchmark):
    beas, sql, decision, exact_rows, exact_fetched = _setup()
    approximator = BoundedApproximator(beas.catalog)
    result = few(
        benchmark,
        lambda: approximator.execute(decision.plan, budget=exact_fetched),
        rounds=3,
    )
    assert set(result.rows) == exact_rows
    assert result.complete


def test_approximation_report(benchmark):
    once(benchmark, lambda: None)
    report = "\n".join(
        [
            f"E8 — resource-bounded approximation of Q1 at scale {SCALE}",
            "answers are a sound subset; 'guaranteed' is the deterministic "
            "recall lower bound derived from the access schema",
            "",
            format_table(
                ("budget", "answers", "guaranteed recall", "true recall",
                 "fetched", "exact"),
                _rows,
            ),
        ]
    )
    write_report("approximation.txt", report)
