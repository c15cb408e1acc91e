#!/usr/bin/env python3
"""Resource budgets: checking without executing, and bounded approximation.

The demo's Fig. 2(A) lets a user "enter a budget on the amount of data to
be accessed, and use BE Checker to find whether Q can be answered within
the budget under A, without executing Q". When the deduced bound exceeds
the budget, BEAS can either refuse or compute *approximate* answers with
a deterministic accuracy lower bound, never fetching more than the budget.

Run:  python examples/approximation_budget.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Session
from repro.bench.reporting import format_table
from repro.errors import BudgetExceededError
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries


def main() -> None:
    ds = generate_tlc(scale=4)
    session = Session(ds.database, tlc_access_schema())
    q1 = tlc_queries(ds.params)[0]
    query = session.query(q1.sql)

    # ---- budget checking, before execution --------------------------------
    print("== budget feasibility (no execution) ==")
    for budget in (13_000_000, 1_000_000, 10_000):
        decision = query.decide(budget=budget).coverage
        verdict = "within" if decision.within_budget else "OVER"
        print(
            f"budget {budget:>10}: deduced bound M = {decision.access_bound} "
            f"-> {verdict} budget"
        )

    # ---- exceeding the budget: refuse or approximate ------------------------
    print("\n== over-budget behaviour ==")
    try:
        query.run(budget=10_000)
    except BudgetExceededError as error:
        print(f"strict mode refuses: {error}")

    exact = query.run()
    print(
        f"\nexact answer: {len(exact.rows)} rows, "
        f"{exact.metrics.tuples_fetched} tuples fetched"
    )

    print("\napproximate answers under shrinking budgets:")
    rows = []
    for budget in (exact.metrics.tuples_fetched, 60, 30, 10, 0):
        result = query.run(
            budget=budget, approximate_over_budget=True
        )
        if result.approximation is None:
            status, guaranteed = "exact (bounded)", 1.0
            fetched = result.metrics.tuples_fetched
        else:
            approx = result.approximation
            status = "exact" if approx.complete else "approximate"
            guaranteed = approx.recall_lower_bound
            fetched = approx.tuples_fetched
        found = result.to_set()
        assert found <= exact.to_set()  # soundness
        rows.append(
            (
                budget,
                f"{len(found)}/{len(exact.rows)}",
                f"{guaranteed:.4f}",
                fetched,
                status,
            )
        )
    print(
        format_table(
            ("budget", "answers", "guaranteed recall", "fetched", "status"),
            rows,
        )
    )


if __name__ == "__main__":
    main()
