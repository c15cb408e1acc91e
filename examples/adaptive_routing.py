#!/usr/bin/env python3
"""Learned adaptive executor routing through the Session lifecycle.

The engine ships observationally-identical routes for a covered bounded
plan (in-process row or columnar, a pool worker); which one is fastest
depends on the query template. With
``ExecutionOptions(routing="learned")`` (or ``BEAS_ROUTING=learned``)
the serving layer keeps the running mean of each route's measured
latency per (template, binding signature) — the signature is each
slot's IN-list arity and value types, never the values — and routes
each covered execution through the route with the lowest mean, after
trying each once and with epsilon-greedy exploration so a changed
workload is re-learned. It reads no table and no statistics. Routing never changes answers: every route runs the same
bounded plan, so a wrong prediction costs latency only.

Run:  python examples/adaptive_routing.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import ExecutionOptions, Session

from tests.conftest import example1_access_schema, example1_database

SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '2025550001' AND date = '2016-01-02'"
)
DAYS = ["2016-01-02", "2016-06-01", "2016-06-02", "2016-06-03"]

print("== learned routing over one serving mix ==")
with Session(
    example1_database(),
    example1_access_schema(),
    options=ExecutionOptions(routing="learned"),
) as session:
    query = session.query(SQL, name="by_caller_and_day")

    # one template, many bindings of one signature: they share the
    # template's latency means, so observations from one binding route
    # the next
    for pass_number in range(3):
        for day in DAYS:
            result = query.bind(date=day).run(use_result_cache=False)
            if pass_number == 0:
                flag = " (exploring)" if result.metrics.routing_explored else ""
                print(
                    f"date={day}: routed_mode="
                    f"{result.metrics.routed_mode}{flag}"
                )

    # the router's accounting rides on the serving stats
    stats = session.stats()
    print()
    print(stats.routing.describe())
    assert stats.routing.decisions == 3 * len(DAYS)
    assert stats.routing.observations == stats.routing.decisions

    # per-call options beat the session layer: this execution is pinned
    # to the engine's static shape and the router never sees it
    pinned = query.run(routing="static", use_result_cache=False)
    print(f"\nstatic override: routed_mode={pinned.metrics.routed_mode!r}")

    routed = query.run(use_result_cache=False)  # original constants

# routing is sound by construction: a static session answers the same
# (routing="static" at session level beats any ambient BEAS_ROUTING)
with Session(
    example1_database(),
    example1_access_schema(),
    options=ExecutionOptions(routing="static"),
) as static:
    expected = static.run(SQL, use_result_cache=False)
    assert sorted(expected.rows) == sorted(routed.rows)
    assert sorted(expected.rows) == sorted(pinned.rows)
    assert static.stats().routing.decisions == 0  # static never routes
print("\nanswers identical under learned and static routing")
