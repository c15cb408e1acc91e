"""Compare two result files of the benchmark, metric by metric.

    python3 perf/compare.py A.json B.json

A is the base (for instance perf/baselines/BENCH_12.json), B the candidate.
For every workload and every end-to-end metric the table shows the base,
the candidate, the change in the metric's bad direction and the bound that
BENCHMARK.json fixes for it. A change beyond the bound is a REGRESSION,
unless either side's own slice-to-slice spread is wider than the bound:
then it is ``unresolved`` — the run cannot tell. ``tuples_per_req`` is a
count over a fixed op stream: any difference is a MISMATCH. A workload or
metric the base has and the candidate lacks is MISSING. Exit status is 1
on any REGRESSION, MISMATCH or MISSING.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILING = ("REGRESSION", "MISMATCH", "MISSING")


def load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def verdicts(base: dict, candidate: dict, declared: dict) -> list[dict]:
    rows = []
    for workload, old in base["workloads"].items():
        new = candidate["workloads"].get(workload, {})
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = old.get("end_to_end", {}).get(name)
            b = new.get("end_to_end", {}).get(name)
            if a is None:  # nothing to hold the candidate to
                continue
            row = {
                "workload": workload, "metric": name, "base": a, "candidate": b,
                "worse": 0.0, "bound": metric["bound"], "spread": 0.0,
            }
            rows.append(row)
            if b is None:
                row["verdict"] = "MISSING"
                continue
            delta = b - a if metric["better"] == "lower" else a - b
            if a:
                row["worse"] = delta / abs(a)
            elif delta:
                row["worse"] = math.copysign(math.inf, delta)
            row["spread"] = max(
                side.get("spread", {}).get(name, 0.0) for side in (old, new)
            )
            if name == "tuples_per_req":
                row["verdict"] = "ok" if a == b else "MISMATCH"
            elif row["worse"] <= metric["bound"]:
                row["verdict"] = "ok"
            elif row["spread"] > metric["bound"]:
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = "REGRESSION"
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            lines.append(f"== {workload}")
            lines.append(
                f"  {'metric':16s} {'base':>14s} {'candidate':>14s} {'worse by':>9s} "
                f"{'bound':>6s} {'spread':>7s}  verdict"
            )
        candidate = (
            f"{row['candidate']:14.4f}" if row["candidate"] is not None else f"{'-':>14s}"
        )
        lines.append(
            f"  {row['metric']:16s} {row['base']:14.4f} {candidate} "
            f"{row['worse']:+9.1%} {row['bound']:6.0%} {row['spread']:7.1%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = verdicts(load(argv[0]), load(argv[1]), load(ROOT / "BENCHMARK.json"))
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in FAILING]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(bad)} failing, {unresolved} unresolved, "
          f"{len(rows) - len(bad) - unresolved} ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
