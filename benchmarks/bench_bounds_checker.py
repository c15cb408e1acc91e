"""E4 + A3 — bound deduction and the BE Checker, before any execution.

Example 2 of the paper deduces, from the access schema alone: at most
2 000 business tuples, 24 000 package tuples and 12 000 000 call tuples.
This bench asserts those exact numbers, measures checking time (the
Feasibility Theorem makes the check PTIME — it must stay sub-millisecond
per query), exercises the budget feature of Fig. 2(A), and reports the
naive-vs-tight bound ablation (A3) over all covered TLC queries.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.workloads.tlc import query_by_name, tlc_queries

from benchmarks.conftest import beas_for, dataset, few, once, write_report

SCALE = 1  # checking is symbolic; data size is irrelevant


def test_checker_speed_q1(benchmark):
    """BE Checker latency on Q1 (three-relation join)."""
    beas = beas_for(SCALE)
    sql = query_by_name(dataset(SCALE).params, "Q1").sql
    decision = few(benchmark, lambda: beas.check(sql), rounds=20)
    assert decision.covered


def test_checker_speed_all_queries(benchmark):
    beas = beas_for(SCALE)
    queries = tlc_queries(dataset(SCALE).params)

    def run():
        return [beas.check(q.sql) for q in queries]

    decisions = few(benchmark, run, rounds=5)
    assert sum(d.covered for d in decisions) == 10


def test_example2_bounds_exact(benchmark):
    beas = beas_for(SCALE)
    sql = query_by_name(dataset(SCALE).params, "Q1").sql
    decision = few(benchmark, lambda: beas.check(sql), rounds=5)
    plan = decision.plan
    assert [f.access_bound for f in plan.fetch_ops] == [
        2000, 24_000, 12_000_000,
    ], "Example 2's deduced bounds must match the paper exactly"
    assert plan.access_bound == 12_026_000
    assert plan.tight_access_bound == 1_026_000


def test_budget_feature(benchmark):
    """Fig. 2(A): 'enter a budget ... without executing Q'."""
    beas = beas_for(SCALE)
    sql = query_by_name(dataset(SCALE).params, "Q1").sql

    def run():
        within = beas.check(sql, budget=13_000_000)
        over = beas.check(sql, budget=1_000_000)
        return within, over

    within, over = few(benchmark, run, rounds=5)
    assert within.within_budget is True
    assert over.within_budget is False


def test_bounds_report(benchmark):
    once(benchmark, lambda: None)
    beas = beas_for(SCALE)
    queries = tlc_queries(dataset(SCALE).params)
    rows = []
    for query in queries:
        decision = beas.check(query.sql)
        if not decision.covered:
            rows.append((query.name, "not covered", "-", "-", "-"))
            continue
        ratio = (
            decision.access_bound / decision.tight_access_bound
            if decision.tight_access_bound
            else 1.0
        )
        rows.append(
            (
                query.name,
                ", ".join(c.name for c in decision.constraints_used),
                f"{decision.access_bound}",
                f"{decision.tight_access_bound}",
                f"{ratio:.1f}x",
            )
        )
    report = "\n".join(
        [
            "E4/A3 — deduced access bounds per TLC query "
            "(naive = the paper's arithmetic; tight = equivalence-class aware)",
            "",
            format_table(
                ("query", "constraints", "naive bound M", "tight bound", "naive/tight"),
                rows,
            ),
        ]
    )
    write_report("bounds_checker.txt", report)
