"""A1 — ablation: *reduced redundancy* (partial vs full tuples) and
fetch-key dedup.

Paper §1(2): BEAS "fetches only (distinct) partial tuples needed for
answering Q. This reduces duplicated and unnecessary attributes in tuples
fetched by traditional DBMS." We register an alternative access schema
whose constraints carry *entire* rows (every column in Y) and compare:
same bounded plans and bounds in tuple counts, but far more value cells
moved and more time spent.

Also ablated: ``dedup_keys`` — the paper's accounting presents every
intermediate row's key to the index ("it still accesses over 12 million
tuples"); deduplicating keys fetches each distinct key once.
"""

from __future__ import annotations

import time

from repro import AccessConstraint, AccessSchema, BEAS
from repro.bench.reporting import format_table
from repro.workloads.tlc import query_by_name, tlc_schema

from benchmarks.conftest import dataset, few, once, write_report

SCALE = 50

_rows: list[tuple] = []


def _full_tuple_schema() -> AccessSchema:
    """ψ1-ψ3 variants whose Y carries every remaining column of the relation."""
    schema = tlc_schema()

    def all_but(table: str, x: list[str]) -> list[str]:
        return [c for c in schema.table(table).column_names if c not in x]

    return AccessSchema(
        [
            AccessConstraint(
                "call", ["pnum", "date"], all_but("call", ["pnum", "date"]),
                500, name="psi1_full",
            ),
            AccessConstraint(
                "package", ["pnum", "year"], all_but("package", ["pnum", "year"]),
                12, name="psi2_full",
            ),
            AccessConstraint(
                "business", ["type", "region"],
                all_but("business", ["type", "region"]), 2000, name="psi3_full",
            ),
        ],
        name="A0_full",
    )


def _partial_tuple_schema() -> AccessSchema:
    return AccessSchema(
        [
            AccessConstraint(
                "call", ["pnum", "date"], ["recnum", "region"], 500, name="psi1"
            ),
            AccessConstraint(
                "package", ["pnum", "year"], ["pid", "start", "end"], 12,
                name="psi2",
            ),
            AccessConstraint(
                "business", ["type", "region"], ["pnum"], 2000, name="psi3"
            ),
        ],
        name="A0_partial",
    )


def _cells(result, beas: BEAS) -> int:
    """Value cells moved: fetched tuples x constraint width."""
    total = 0
    for op in result.metrics.operations:
        if not op.label.startswith("fetch["):
            continue
        name = op.label.split("[")[1].split("]")[0]
        constraint = beas.catalog.schema.get(name)
        total += op.tuples_out * (len(constraint.x) + len(constraint.y))
    return total


def _run(benchmark, access: AccessSchema, label: str, dedup: bool = False):
    ds = dataset(SCALE)
    session = BEAS(ds.database, access, dedup_keys=dedup).session()
    sql = query_by_name(ds.params, "Q1").sql

    timings: list[float] = []

    def run():
        t0 = time.perf_counter()
        result = session.run(sql, use_result_cache=False)
        timings.append(time.perf_counter() - t0)
        return result

    result = few(benchmark, run, rounds=5)
    _rows.append(
        (
            label,
            f"{min(timings) * 1000:.2f} ms",
            result.metrics.tuples_fetched,
            _cells(result, session.beas),
        )
    )
    return result


def test_partial_tuples(benchmark):
    _run(benchmark, _partial_tuple_schema(), "partial tuples (BEAS)")


def test_full_tuples(benchmark):
    _run(benchmark, _full_tuple_schema(), "full tuples (ablation)")


def test_dedup_keys(benchmark):
    _run(
        benchmark, _partial_tuple_schema(), "partial + key dedup", dedup=True
    )


def test_ablation_report(benchmark):
    once(benchmark, lambda: None)
    report = "\n".join(
        [
            f"A1 — reduced redundancy ablation on Q1 at scale {SCALE}",
            "partial-tuple fetches move far fewer value cells than full-row "
            "fetches at identical tuple bounds; key dedup reduces fetches "
            "below the paper's per-row accounting",
            "",
            format_table(("variant", "time", "tuples fetched", "value cells"), _rows),
        ]
    )
    write_report("ablation_partial_tuples.txt", report)

    by_label = {row[0]: row for row in _rows}
    partial_cells = by_label["partial tuples (BEAS)"][3]
    full_cells = by_label["full tuples (ablation)"][3]
    assert full_cells > 2 * partial_cells, (
        "full-tuple fetches must move substantially more data"
    )
    dedup_fetched = by_label["partial + key dedup"][2]
    plain_fetched = by_label["partial tuples (BEAS)"][2]
    assert dedup_fetched <= plain_fetched
