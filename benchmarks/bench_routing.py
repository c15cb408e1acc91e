"""E11 — learned adaptive executor routing on a bimodal serving mix.

No static engine shape wins a mixed workload: tuple-at-a-time execution
is fastest for micro point lookups (no per-query batch machinery),
vectorised columnar wins selective filters and wide joins, and
whole-plan dispatch to a pool worker pays per-query IPC that only
multi-client throughput can amortise. The learned router (``repro.engine.router``) observes each
(template, route) pair's measured latency and converges to the
per-template winner, so one serving configuration tracks the best
static mode everywhere.

This bench drives four prepared templates through the serving layer
(result caching off, distinct bindings per execution):

* ``micro``  — point lookup fetching ~3 rows (row-friendly),
* ``med``    — join with a trivial-work multi-chunk second fetch
  (serial-friendly),
* ``filter`` — selective predicate over a ~600-row fetch (columnar),
* ``heavy``  — GROUP-BY aggregate join whose second fetch fans ~8 rows
  per input row (batch-friendly),

against three static servers (``routing="static"`` on engines pinned to
row, columnar, pool) and one learned server
(``routing="learned"``, trained on untimed passes, then timed greedy).

The acceptance bars asserted here: the learned server is >= 1.0x every
static mode and >= 1.3x the worst static mode on the same mix. The
bars assume the two pool workers get real cores (CI runs this on
4-vCPU runners); below 2 CPUs the comparison still runs for
correctness but the perf assertion is skipped with a loud message.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_routing.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_routing.py --quick``) — the latter is the CI smoke
(small dataset, answer-equality + router-wiring checks, no perf bar).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.bench.reporting import format_table

from benchmarks.conftest import once, write_report

ROWS_PER_BATCH = 64  # chunk granularity: med runs ~10 trivial chunks

MICRO_KEYS = 64
MICRO_FAN = 3
MED_KEYS = 8
MED_FAN = 600  # second-fetch input rows -> ~10 chunks of trivial work
FILTER_KEYS = 8
FILTER_ROWS = 600
DATES = [f"2016-01-{d:02d}" for d in range(1, 9)]
HEAVY_IN = 1200  # rids per date
HEAVY_FAN = 8  # f-rows per rid: real per-chunk compute
REGIONS = 6

MICRO_PER_ROUND = 18
MED_PER_ROUND = 6
FILTER_PER_ROUND = 6
HEAVY_PER_ROUND = 1
ROUNDS = 12
REPEATS = 3

QUICK_SCALE = 10  # divides med/filter/heavy row counts
QUICK_ROUNDS = 2

MIN_SPEEDUP = 1.0  # learned vs the best static mode
WORST_SPEEDUP = 1.3  # learned vs the worst static mode

STATIC_SHAPES = {
    "row": dict(executor="row", parallelism=1),
    "columnar": dict(executor="columnar", parallelism=1),
    "pool": dict(executor="columnar", parallelism=2),
}


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_db(scale_divisor: int = 1) -> tuple[Database, AccessSchema]:
    med_fan = max(MED_FAN // scale_divisor, 20)
    filter_rows = max(FILTER_ROWS // scale_divisor, 20)
    heavy_in = max(HEAVY_IN // scale_divisor, 20)
    schema = DatabaseSchema(
        [
            TableSchema(
                "t",
                [("k", DataType.STRING), ("u", DataType.STRING)],
                keys=[("u",)],
            ),
            TableSchema(
                "m",
                [("k", DataType.STRING), ("u", DataType.STRING)],
                keys=[("u",)],
            ),
            TableSchema(
                "ms",
                [("u", DataType.STRING), ("w", DataType.STRING)],
                keys=[("u",)],
            ),
            TableSchema(
                "t2",
                [
                    ("k", DataType.STRING),
                    ("v", DataType.INT),
                    ("u", DataType.STRING),
                ],
                keys=[("u",)],
            ),
            TableSchema(
                "e",
                [("d", DataType.STRING), ("rid", DataType.INT)],
                keys=[("rid",)],
            ),
            TableSchema(
                "f",
                [
                    ("rid", DataType.INT),
                    ("region", DataType.STRING),
                    ("amount", DataType.INT),
                    ("fid", DataType.INT),
                ],
                keys=[("fid",)],
            ),
        ]
    )
    db = Database(schema)
    for i in range(MICRO_KEYS):
        for j in range(MICRO_FAN):
            db.insert("t", (f"k{i:03d}", f"u{i:03d}_{j}"))
    for i in range(MED_KEYS):
        for j in range(med_fan):
            u = f"u{i}_{j:04d}"
            db.insert("m", (f"k{i}", u))
            db.insert("ms", (u, f"w{j % 7}"))
    for i in range(FILTER_KEYS):
        for j in range(filter_rows):
            db.insert("t2", (f"k{i}", j % 251, f"w{i}_{j:04d}"))
    rid = 0
    fid = 0
    for d in DATES:
        for i in range(heavy_in):
            db.insert("e", (d, rid))
            for j in range(HEAVY_FAN):
                db.insert(
                    "f", (rid, f"r{(rid + j) % REGIONS}", (rid * j) % 997, fid)
                )
                fid += 1
            rid += 1
    access = AccessSchema(
        [
            AccessConstraint("t", ["k"], ["u"], MICRO_FAN + 2, name="t_by_k"),
            AccessConstraint("m", ["k"], ["u"], med_fan + 8, name="m_by_k"),
            AccessConstraint("ms", ["u"], ["w"], 2, name="ms_by_u"),
            AccessConstraint(
                "t2", ["k"], ["v", "u"], filter_rows + 8, name="t2_by_k"
            ),
            # rid / fid (the table keys) ride in Y so plans over e, f
            # stay bag-exact and the COUNT/SUM template remains covered
            AccessConstraint("e", ["d"], ["rid"], heavy_in + 8, name="e_by_d"),
            AccessConstraint(
                "f",
                ["rid"],
                ["region", "amount", "fid"],
                HEAVY_FAN + 2,
                name="f_by_rid",
            ),
        ]
    )
    return db, access


def make_templates(server):
    """The four prepared templates; the router learns one cost model
    per template fingerprint, shared by every binding."""
    return {
        "micro": server.prepare("SELECT u FROM t WHERE k = 'k000'"),
        "med": server.prepare(
            "SELECT m.u, ms.w FROM m, ms "
            "WHERE m.k = 'k0' AND ms.u = m.u ORDER BY m.u"
        ),
        "filter": server.prepare(
            "SELECT u FROM t2 WHERE k = 'k0' AND v = 17"
        ),
        "heavy": server.prepare(
            "SELECT f.region, COUNT(*) AS c, SUM(f.amount) AS s FROM e, f "
            f"WHERE e.d = '{DATES[0]}' AND f.rid = e.rid GROUP BY f.region"
        ),
    }


def round_bindings(round_number: int):
    """One round of the mix: (template, params) pairs with distinct
    bindings per round so every execute is real engine work."""
    mix = []
    for i in range(MICRO_PER_ROUND):
        key = (round_number * 31 + i * 7) % MICRO_KEYS
        mix.append(("micro", {"k": f"k{key:03d}"}))
    for i in range(MED_PER_ROUND):
        mix.append(("med", {"m.k": f"k{(round_number + i) % MED_KEYS}"}))
    for i in range(FILTER_PER_ROUND):
        mix.append(
            (
                "filter",
                {
                    "k": f"k{(round_number + i) % FILTER_KEYS}",
                    "v": (round_number * 13 + i * 29) % 251,
                },
            )
        )
    for i in range(HEAVY_PER_ROUND):
        mix.append(
            ("heavy", {"d": DATES[(round_number * 3 + i) % len(DATES)]})
        )
    return mix


def drive(server, templates, rounds: int, routing: str) -> float:
    """Execute ``rounds`` of the mix; returns wall-clock seconds."""
    start = time.perf_counter()
    for round_number in range(rounds):
        for name, params in round_bindings(round_number):
            server.execute_prepared(
                templates[name],
                params,
                use_result_cache=False,
                routing=routing,
            )
    return time.perf_counter() - start


def measure(scale_divisor: int, rounds: int, repeats: int):
    db, access = build_db(scale_divisor)
    engines = {
        name: BEAS(db, access, rows_per_batch=ROWS_PER_BATCH, **shape)
        for name, shape in STATIC_SHAPES.items()
    }
    learned_beas = BEAS(
        db,
        access,
        executor="columnar",
        rows_per_batch=ROWS_PER_BATCH,
        parallelism=2,
    )
    servers = {name: beas.session().server for name, beas in engines.items()}
    learned_server = learned_beas.session().server
    templates = {
        name: make_templates(server) for name, server in servers.items()
    }
    learned_templates = make_templates(learned_server)

    # correctness first: the learned server answers every template
    # identically to the row oracle, whatever route it picks
    for name, params in round_bindings(0):
        expected = servers["row"].execute_prepared(
            templates["row"][name], params, use_result_cache=False
        )
        got = learned_server.execute_prepared(
            learned_templates[name],
            params,
            use_result_cache=False,
            routing="learned",
        )
        assert got.rows == expected.rows, f"learned answer diverged: {name}"
        assert (
            got.metrics.tuples_fetched == expected.metrics.tuples_fetched
        ), f"learned accounting diverged: {name}"

    # warm every config (plans, snapshots), then train the router: the
    # untimed passes with the default epsilon cover every route per
    # template before the timed phase runs greedily
    for name, server in servers.items():
        drive(server, templates[name], 2, "static")
    drive(learned_server, learned_templates, 4, "learned")
    learned_server.router.epsilon = 0.0  # timed phase: pure exploitation

    static_seconds = {name: [] for name in servers}
    learned_seconds = []
    for _ in range(repeats):
        for name, server in servers.items():
            static_seconds[name].append(
                drive(server, templates[name], rounds, "static")
            )
        learned_seconds.append(
            drive(learned_server, learned_templates, rounds, "learned")
        )

    stats = learned_server.router.stats()
    for beas in engines.values():
        beas.close()
    learned_beas.close()
    queries = rounds * len(round_bindings(0))
    return {
        "static": {n: statistics.median(s) for n, s in static_seconds.items()},
        "learned": statistics.median(learned_seconds),
        "router": stats,
        "queries": queries,
    }


def _report(measured: dict, repeats: int) -> str:
    learned = measured["learned"]
    queries = measured["queries"]
    rows = []
    for name, seconds in measured["static"].items():
        rows.append(
            (
                f"static {name}",
                f"{seconds * 1000:.1f}",
                f"{queries / max(seconds, 1e-9):.0f}",
                f"{seconds / max(learned, 1e-9):.2f}x",
            )
        )
    rows.append(
        (
            "learned router",
            f"{learned * 1000:.1f}",
            f"{queries / max(learned, 1e-9):.0f}",
            "1.00x",
        )
    )
    table = format_table(
        ["configuration", "mix ms", "queries/s", "learned speedup"], rows
    )
    return (
        f"E11 learned executor routing — {queries} queries/mix "
        f"({MICRO_PER_ROUND} micro : {MED_PER_ROUND} med : "
        f"{FILTER_PER_ROUND} filter : {HEAVY_PER_ROUND} heavy per round), "
        f"{repeats} repeats, {_cpus()} CPUs\n\n"
        + table
        + "\n"
        + measured["router"].describe()
    )


def run(
    scale_divisor: int = 1,
    rounds: int = ROUNDS,
    repeats: int = REPEATS,
) -> tuple[float, float]:
    """Measure, print, persist; returns (speedup vs best static, speedup
    vs worst static)."""
    measured = measure(scale_divisor, rounds, repeats)
    text = _report(measured, repeats)
    print(text)
    write_report("bench_routing.txt", text)
    learned = measured["learned"]
    ratios = [s / max(learned, 1e-9) for s in measured["static"].values()]
    return min(ratios), max(ratios)


def test_routing_speedup(benchmark):
    if _cpus() < 2:
        import pytest

        pytest.skip(
            "the pooled routes need 2 real cores; the routing bars assume "
            "a multi-core host (CI runs this on 4-vCPU runners)"
        )
    best, worst = once(benchmark, run)
    assert best >= MIN_SPEEDUP, (
        f"learned routing is {best:.2f}x vs the best static mode "
        f"(target >= {MIN_SPEEDUP}x)"
    )
    assert worst >= WORST_SPEEDUP, (
        f"learned routing is only {worst:.2f}x vs the worst static mode "
        f"(target >= {WORST_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset, answer-equality + wiring smoke only — no "
        "perf bars (CI)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        best, worst = run(QUICK_SCALE, QUICK_ROUNDS, repeats=1)
        print(
            f"OK (quick smoke): learned/static agree; "
            f"{best:.2f}x best, {worst:.2f}x worst"
        )
        return 0
    best, worst = run()
    if _cpus() < 2:
        print(
            f"NOTE: {_cpus()}-CPU host; measured {best:.2f}x best / "
            f"{worst:.2f}x worst, the >= {MIN_SPEEDUP}x / "
            f">= {WORST_SPEEDUP}x bars assume 2 real cores",
            file=sys.stderr,
        )
        return 0
    if best < MIN_SPEEDUP or worst < WORST_SPEEDUP:
        print(
            f"FAIL: learned routing {best:.2f}x best / {worst:.2f}x worst "
            f"static (targets >= {MIN_SPEEDUP}x / >= {WORST_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: learned routing {best:.2f}x vs best static, "
        f"{worst:.2f}x vs worst static"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
