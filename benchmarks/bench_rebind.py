"""E10 — binding-aware plan rebinding: the decision-path speedup.

A prepared template is *decided once* per arity signature; every later
equal-arity binding rebinds the pinned decision by value — one merged
constant tuple per equality class, no copy of the plan
(``repro.bounded.rebind``) — instead of re-running the BE Checker
(normalize + bounded-plan search). Reported, for the paper's
Example 2 join template across ``BINDINGS`` distinct date bindings:

* per-binding re-check — the pre-rebinding serving behaviour: a full
  ``BoundedEvaluabilityChecker.check`` per distinct binding;
* rebinding — one full check for the first binding of the signature,
  then a rebind per binding (zero checker runs, asserted).

The acceptance bar asserted by the full run: the rebinding decision path
is at least 5x faster across the binding stream than per-binding
re-checks. ``--quick`` is the CI smoke and checks for crashes and the
zero-checker-run counts only; what the bar stands for — a rebind
re-derives nothing but constants and copies no plan — is held exactly,
as counts, by ``tests/test_plan_skeleton.py``.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_rebind.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_rebind.py [--quick]``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import BEAS, Session
from repro.bench.reporting import format_table

from benchmarks.conftest import once, write_report
from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)

BINDINGS = 500
TARGET_SPEEDUP = 5.0

_rows: list[tuple] = []


def _bindings(count: int) -> list[dict]:
    return [
        {"call.date": f"2016-{1 + i % 12:02d}-{1 + i % 28:02d}#{i}"}
        for i in range(count)
    ]


def measure_rebinding(count: int) -> dict[str, float]:
    """Total decision-path seconds for ``count`` distinct bindings."""
    database = example1_database()
    schema = example1_access_schema()
    bindings = _bindings(count)

    # --- baseline: a full BE Checker run per binding (the pre-rebind
    # serving behaviour once the per-binding decision cache misses) ----
    oracle = BEAS(database, schema)
    with Session(beas=BEAS(database, schema)) as warmup:
        template = warmup.query(EXAMPLE2_SQL, name="warm")
        bound_statements = [
            template._prepared.binding(b).statement for b in bindings
        ]
    start = time.perf_counter()
    for statement in bound_statements:
        decision = oracle.check(statement)
        assert decision.covered
    recheck_seconds = time.perf_counter() - start
    assert oracle.checker_runs >= count

    # --- rebinding: decide once per signature, rebind per binding -----
    session = Session(beas=BEAS(database, schema))
    query = session.query(EXAMPLE2_SQL, name="bench-rebind")
    start = time.perf_counter()
    for binding in bindings:
        decision = query.bind(binding).decide()
        assert decision.covered
    rebind_seconds = time.perf_counter() - start
    stats = session.stats()
    # the headline mechanic: one checker run for the whole stream
    assert session.beas.checker_runs == 1, session.beas.checker_runs
    assert stats.rebinds == count - 1
    session.close()

    return {
        "recheck": recheck_seconds,
        "rebind": rebind_seconds,
        "per_recheck_us": recheck_seconds / count * 1e6,
        "per_rebind_us": rebind_seconds / count * 1e6,
    }


def _report(measured: dict[str, float], count: int) -> str:
    speedup = measured["recheck"] / max(measured["rebind"], 1e-9)
    table = format_table(
        ["decision path", "total ms", "per binding µs", "speedup"],
        [
            (
                "re-check per binding",
                f"{measured['recheck'] * 1000:.1f}",
                f"{measured['per_recheck_us']:.1f}",
                "1.0x",
            ),
            (
                "rebind pinned plan",
                f"{measured['rebind'] * 1000:.1f}",
                f"{measured['per_rebind_us']:.1f}",
                f"{speedup:.1f}x",
            ),
        ],
    )
    return (
        f"E10 plan rebinding — Example 2 template, {count} distinct "
        f"bindings\n\n" + table
    )


def run(count: int = BINDINGS) -> float:
    measured = measure_rebinding(count)
    text = _report(measured, count)
    print(text)
    write_report("bench_rebind.txt", text)
    return measured["recheck"] / max(measured["rebind"], 1e-9)


def test_rebind_speedup(benchmark):
    speedup = once(benchmark, run)
    assert speedup >= TARGET_SPEEDUP, (
        f"rebinding decision path is only {speedup:.1f}x vs per-binding "
        f"re-check (target {TARGET_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer bindings, no timing bar (the CI smoke: crashes and counts)",
    )
    args = parser.parse_args(argv)
    count = 100 if args.quick else BINDINGS
    speedup = run(count)
    if args.quick:
        print(f"OK: smoke ran, rebinding speedup {speedup:.1f}x (not gated)")
        return 0
    if speedup < TARGET_SPEEDUP:
        print(
            f"FAIL: rebinding speedup {speedup:.1f}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: rebinding speedup {speedup:.1f}x >= {TARGET_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
