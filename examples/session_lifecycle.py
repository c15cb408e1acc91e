#!/usr/bin/env python3
"""The unified Session/Query/Decision/Result lifecycle, end to end.

The one way to run a query:

1. ``Session`` — context-managed facade over the engine and its
   sharded serving state;
2. ``session.query(sql)`` — parse/fingerprint/slot-extract once;
3. ``query.decide()`` — the BE Checker verdict, pinned: boundedness,
   plan, deduced bound, cache provenance;
4. ``decision.run()`` / ``query.bind(...).run()`` — execution within
   the bound, returning the unified ``Result``;
5. **plan rebinding** — equal-arity bindings of one template patch the
   pinned plan's constants directly: zero BE Checker re-runs, asserted
   here with the engine's own counter;
6. one validated ``ExecutionOptions`` chain (call > Query > Session >
   environment > defaults) instead of per-call knob plumbing.

Run:  python examples/session_lifecycle.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import ExecutionOptions, Session

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)

with Session(
    example1_database(),
    example1_access_schema(),
    options=ExecutionOptions(use_result_cache=True),
) as session:
    # ---- 1. prepare once ------------------------------------------------
    query = session.query(EXAMPLE2_SQL, name="example2")
    print("== prepared template ==")
    print("slots:", ", ".join(sorted(query.slots)))

    # ---- 2. decide once -------------------------------------------------
    decision = query.decide()
    print("\n== decision ==")
    print(f"verdict: {decision.verdict} ({decision.provenance})")
    print(f"access bound M = {decision.access_bound} tuples")
    print(decision.explain())

    # ---- 3. run many ----------------------------------------------------
    result = decision.run()
    print("\n== execution ==")
    print(result.describe())
    print("answers:", sorted(result.rows))
    assert result.metrics.tuples_scanned == 0  # no base table scanned

    # ---- 4. one template, many bindings: plan REBINDING -----------------
    print("\n== rebinding across bindings ==")
    checks_before = session.beas.checker_runs
    for day in ("2016-06-02", "2016-06-03", "2016-06-04", "2016-06-05"):
        bound = query.bind(date=day).run(use_result_cache=False)
        print(
            f"date={day}: {sorted(bound.rows)!s:<24} "
            f"decision={bound.decision.provenance}"
        )
    checker_runs = session.beas.checker_runs - checks_before
    print(f"checker runs for 4 new bindings: {checker_runs}")
    assert checker_runs == 1  # first binding of the signature only

    # ---- 5. per-call options beat the session layer ---------------------
    columnar = query.run(executor="columnar", use_result_cache=False)
    assert sorted(columnar.rows) == sorted(result.rows)
    print(
        f"\ncolumnar override: {columnar.metrics.batches} batches of "
        f"{columnar.metrics.rows_per_batch} rows, same answers"
    )

    # ---- 6. maintenance flows through the same session ------------------
    session.insert("call", [(800, "100", "555", "2016-06-01", "harbor")])
    refreshed = query.run()
    print("after insert:", sorted(refreshed.rows))

    stats = session.stats()
    print(
        f"\nserving: {stats.executions} executions, "
        f"{stats.rebinds} plan rebinds, "
        f"{stats.checker_runs} checker runs total"
    )
