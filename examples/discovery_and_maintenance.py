#!/usr/bin/env python3
"""The offline AS Catalog services: discovery and maintenance (Fig. 2(D)).

1. **Discovery** — from a dataset and a historical query load, discover an
   access schema under a storage budget, for each objective function.
2. **Maintenance** — apply insert/delete batches through the maintenance
   manager (indices updated incrementally), watch a cardinality violation
   be rejected atomically vs adjusted, and let the drift monitor retune
   loose bounds.

Run:  python examples/discovery_and_maintenance.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import BEAS
from repro.bench.reporting import format_table
from repro.discovery import DiscoveryObjective, discover
from repro.errors import MaintenanceError
from repro.maintenance import DriftMonitor, MaintenanceManager, ViolationPolicy
from repro.workloads.tlc import generate_tlc, tlc_queries


def main() -> None:
    ds = generate_tlc(scale=1)
    workload = [q.sql for q in tlc_queries(ds.params)]

    # ---- discovery under different budgets/objectives --------------------
    print("== access schema discovery ==")
    unlimited = discover(ds.database, workload, slack=1.5)
    print(f"\nunlimited budget ({unlimited.storage_used} cells):")
    print(unlimited.describe())

    rows = []
    for fraction in (1.0, 0.5, 0.25):
        budget = int(unlimited.storage_used * fraction)
        for objective in DiscoveryObjective:
            result = discover(
                ds.database, workload, storage_budget=budget,
                objective=objective, slack=1.5,
            )
            rows.append(
                (
                    objective.value,
                    budget,
                    len(result.selected),
                    f"{len(result.covered_queries)}/11",
                    result.storage_used,
                )
            )
    print("\nbudget sweep:")
    print(
        format_table(
            ("objective", "budget", "constraints", "covered", "used"), rows
        )
    )

    # ---- use the discovered schema ---------------------------------------
    beas = BEAS(ds.database, unlimited.schema)
    decision = beas.check(workload[1])  # Q2: direct CDR lookup
    print("\nQ2 under the *discovered* schema:")
    print(decision.describe())

    # ---- incremental maintenance ------------------------------------------
    # (on a catalog carrying the curated schema A0, which names psi1..psi10)
    from repro.workloads.tlc import tlc_access_schema

    print("\n== maintenance ==")
    beas = BEAS(ds.database, tlc_access_schema())
    manager = MaintenanceManager(beas.catalog)
    new_calls = [
        (
            700_000 + i, ds.params.p0, f"E{i:07d}", ds.params.d0, "east",
            "09:30", 45, 0.02, "voice", "out",
            False, False, "T0001", "4G", "normal",
            True, "PLAN01", 0.0, False, "west",
            120, 3, 0.001, "EVS", 0,
            4.5, 0.05, False, "online", "example insert",
        )
        for i in range(5)
    ]
    batch = manager.insert("call", new_calls)
    print(f"inserted {batch.inserted} calls; indices updated incrementally")
    result = beas.session().run(workload[1])
    print(f"Q2 now returns {len(result.rows)} rows "
          f"(fetched {result.metrics.tuples_fetched} tuples, scanned 0)")
    assert result.metrics.tuples_scanned == 0

    manager.delete("call", new_calls)
    print("deleted them again; indices follow")

    # a violating batch under REJECT is rolled back atomically
    psi10 = beas.catalog.schema.get("psi10")
    violating = [
        (
            800_000 + i, ds.params.p0, f"cat{i}", "active", ds.params.d0,
            ds.params.d0, 1, "phone", "AG001", "east",
            "mobile", "pending", False, False, True,
            1, 2, 5, 0.0, "billing",
            False, "violation demo",
        )
        for i in range(psi10.n + 1)  # one complaint category too many
    ]
    try:
        manager.insert("complaint", violating)
    except MaintenanceError as error:
        print(f"\nREJECT policy: {error}")

    adjusting = MaintenanceManager(beas.catalog, policy=ViolationPolicy.ADJUST)
    batch = adjusting.insert("complaint", violating)
    print(
        f"ADJUST policy: accepted; widened {batch.adjusted_constraints} "
        f"(psi10 N is now {beas.catalog.schema.get('psi10').n})"
    )

    # ---- drift monitoring ---------------------------------------------------
    print("\n== drift monitor ==")
    monitor = DriftMonitor(beas.catalog, slack=1.5, tighten_threshold=4.0)
    report = monitor.report()
    print(report.describe())
    changed = monitor.apply(report)
    print(f"applied {len(changed)} bound adjustments: {', '.join(changed) or '-'}")


if __name__ == "__main__":
    main()
