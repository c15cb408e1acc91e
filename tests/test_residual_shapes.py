"""Partially bounded plans of every residual shape, against the reference.

A small schema of the ``big``/``dim`` kind: ``dim`` is covered (its
``(kind, zone)`` and key constraints make the bounded prefix), ``big``
and ``aux`` have no access constraint, so each query below runs a
residual (:mod:`repro.bounded.residual`):

* two uncovered occurrences, ``aux`` probed through ``big``;
* an uncovered occurrence equated with nothing: a scan step, crossed;
* a filter spanning prefix and residual;
* a residual ``IN`` list;
* ``ORDER BY … LIMIT`` (compared as lists);
* ``MIN`` / ``MAX`` / ``COUNT(DISTINCT)`` under ``GROUP BY`` / ``HAVING``;
* NULL join keys on both sides (``dim.ref`` and ``aux.ref``).

Each shape runs through one prepared template: its first binding is
decided fresh, every later one rebound by value, and writes to all three
tables come between the rounds. Every request must be PARTIAL, its rows
bag-equal to the brute-force reference evaluator's, and its
``tuples_scanned`` the prefix's rows plus, per probed relation, the rows
of the buckets its keys name (every row, on the request that builds the
key index), plus every row of a scanned relation.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import (
    BEAS,
    AccessConstraint,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionMode,
    TableSchema,
)
from tests.reference_evaluator import reference_execute

ACCESS = [
    AccessConstraint("dim", ["kind", "zone"], ["k"], 100, name="dim_kz"),
    AccessConstraint("dim", ["k"], ["kind", "zone", "lvl", "ref"], 1, name="dim_k"),
]
#: the prefix's rows: one per dim row of the binding's (kind, zone)
PREFIX = "select d.k from dim d where d.kind = {kind} and d.zone = {zone}"
#: the keys ``big`` is probed by
DIM_KEYS = "select distinct d.k from dim d where d.kind = {kind} and d.zone = {zone}"
#: the keys ``aux`` is probed by, through ``big``
BIG_GROUPS = (
    "select distinct b.grp from big b, dim d "
    "where d.kind = {kind} and d.zone = {zone} and b.k = d.k"
)

#: name -> (SQL template, and per residual relation it reads: (table,
#: column it is probed by, SQL of the keys it is probed with); no
#: column: scanned)
SHAPES = {
    "probe_through_another": (
        "select distinct a.w, b.val from aux a, big b, dim d "
        "where d.kind = {kind} and d.zone = {zone} and b.k = d.k and a.grp = b.grp",
        [("big", "k", DIM_KEYS), ("aux", "grp", BIG_GROUPS)],
    ),
    "scan_and_cross": (
        "select distinct b.grp, a.ref from big b, dim d, aux a "
        "where d.kind = {kind} and d.zone = {zone} and b.k = d.k and a.w = {w}",
        [("big", "k", DIM_KEYS), ("aux", None, None)],
    ),
    "filter_spanning_the_split": (
        "select distinct b.grp, b.val from big b, dim d "
        "where d.kind = {kind} and d.zone = {zone} and b.k = d.k "
        "and b.val > d.lvl * 10",
        [("big", "k", DIM_KEYS)],
    ),
    "residual_in_list": (
        "select distinct b.val from big b, dim d "
        "where d.kind = {kind} and d.zone = {zone} and b.k = d.k and b.grp in {grps}",
        [("big", "k", DIM_KEYS)],
    ),
    "order_by_limit": (
        "select b.grp, b.val from big b, dim d "
        "where d.kind = {kind} and d.zone = {zone} and b.k = d.k "
        "order by val desc, grp limit 7",
        [("big", "k", DIM_KEYS)],
    ),
    "grouped_aggregates": (
        "select b.grp, min(b.val), max(a.w), count(distinct b.k) "
        "from big b, dim d, aux a "
        "where d.kind = {kind} and d.zone = {zone} and b.k = d.k and a.grp = b.grp "
        "group by b.grp having count(distinct b.k) > 1",
        [("big", "k", DIM_KEYS), ("aux", "grp", BIG_GROUPS)],
    ),
    "null_keys_on_both_sides": (
        "select distinct a.w, a.grp from dim d, aux a "
        "where d.kind = {kind} and d.zone = {zone} and a.ref = d.ref",
        [("aux", "ref", "select distinct d.ref from dim d "
                        "where d.kind = {kind} and d.zone = {zone}")],
    ),
}
SLOTS = {"kind": "d.kind", "zone": "d.zone", "w": "a.w", "grps": "b.grp"}
BINDINGS = [
    {"kind": "red", "zone": "n", "w": 1, "grps": ("g1", "g2")},
    {"kind": "blue", "zone": "s", "w": 2, "grps": ("g0", "g3")},
    {"kind": "red", "zone": "s", "w": 0, "grps": ("g4", "g1")},
]


def literal(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(map(literal, value)) + ")"
    return f"'{value}'" if isinstance(value, str) else str(value)


def render(template: str, binding: dict) -> str:
    return template.format(**{name: literal(v) for name, v in binding.items()})


def slots_of(template: str, binding: dict) -> dict:
    return {
        SLOTS[name]: list(value) if isinstance(value, tuple) else value
        for name, value in binding.items()
        if "{" + name + "}" in template
    }


def make_db(rng: random.Random) -> Database:
    db = Database(
        DatabaseSchema(
            [
                TableSchema(
                    "dim",
                    [
                        ("k", DataType.STRING),
                        ("kind", DataType.STRING),
                        ("zone", DataType.STRING),
                        ("lvl", DataType.INT),
                        ("ref", DataType.STRING),
                    ],
                    keys=[("k",)],
                ),
                TableSchema(
                    "big",
                    [
                        ("k", DataType.STRING),
                        ("grp", DataType.STRING),
                        ("val", DataType.INT),
                    ],
                ),
                TableSchema(
                    "aux",
                    [
                        ("grp", DataType.STRING),
                        ("ref", DataType.STRING),
                        ("w", DataType.INT),
                    ],
                ),
            ]
        )
    )
    # two kinds x two zones, four rows each; every fifth ref NULL
    db.table("dim").insert_rows(
        [
            (
                f"k{i}",
                ("blue", "red")[i % 2],
                "ns"[i // 8],
                i % 7,
                None if i % 5 == 0 else f"r{i % 4}",
            )
            for i in range(16)
        ]
    )
    db.table("big").insert_rows([big_row(rng, i) for i in range(120)])
    db.table("aux").insert_rows([aux_row(rng, i) for i in range(12)])
    return db


def big_row(rng: random.Random, i: int) -> tuple:
    # keys beyond dim's k15 join nothing; NULL key, group and value cells
    return (
        None if i % 17 == 0 else f"k{rng.randrange(20)}",
        None if i % 23 == 0 else f"g{rng.randrange(6)}",
        None if i % 19 == 0 else rng.randrange(100),
    )


def aux_row(rng: random.Random, i: int) -> tuple:
    return (
        None if i % 11 == 0 else f"g{rng.randrange(7)}",
        None if i % 6 == 0 else f"r{rng.randrange(5)}",
        rng.randrange(4),
    )


def write_round(beas: BEAS, rng: random.Random, round_: int) -> None:
    """Inserts and deletes on every table, NULL keys included."""
    database = beas.database
    beas.insert("big", [big_row(rng, 1000 * round_ + i) for i in range(6)])
    beas.delete("big", rng.sample(database.table("big").rows, 5))
    beas.insert("aux", [aux_row(rng, 1000 * round_ + i) for i in range(3)])
    beas.delete("aux", rng.sample(database.table("aux").rows, 2))
    beas.insert("dim", [(f"k{15 + round_}x", "red", "n", round_, f"r{round_}")])
    beas.delete("dim", [rng.choice(database.table("dim").rows)])


def expected_scanned(db: Database, reads, binding: dict, built: set) -> int:
    """The prefix's rows, plus each residual relation's rows read."""
    scanned = len(reference_execute(db, render(PREFIX, binding)))
    for table, column, keys_sql in reads:
        if column is None or (table, column) not in built:
            scanned += len(db.table(table))  # a scan, or the key index's build
            continue
        keys = {row[0] for row in reference_execute(db, render(keys_sql, binding))}
        cells = db.table(table).project([column])
        scanned += sum(1 for (cell,) in cells if cell is not None and cell in keys)
    return scanned


@pytest.mark.parametrize("shape", list(SHAPES))
def test_shape_matches_the_reference_first_and_rebound_across_writes(shape):
    template, reads = SHAPES[shape]
    rng = random.Random(41)
    db = make_db(rng)
    ordered = "order by" in template
    built: set = set()
    with BEAS(db, AccessSchema(list(ACCESS))) as beas:
        query = beas.session().query(render(template, BINDINGS[0]))
        for round_ in range(3):
            if round_:
                write_round(beas, rng, round_)
            for step, binding in enumerate(BINDINGS):
                text = render(template, binding)
                bound = query.bind(slots_of(template, binding))
                result = bound.run(use_result_cache=False)
                assert result.mode is ExecutionMode.PARTIAL, shape
                first = round_ == 0 and step == 0
                assert result.decision.provenance == ("fresh" if first else "rebound")
                expected = reference_execute(db, text)
                if ordered:
                    assert result.rows == expected, (shape, binding)
                else:
                    assert Counter(result.rows) == Counter(expected), (shape, binding)
                assert result.metrics.tuples_scanned == expected_scanned(
                    db, reads, binding, built
                ), (shape, binding, round_)
                labels = [op.label for op in result.metrics.operations]
                probes = [label for label in labels if "⋉" in label]
                for table, column, _ in reads:
                    if column is None:
                        continue
                    (label,) = [p for p in probes if p.startswith(f"probe({table} ")]
                    assert ("index built" in label) == ((table, column) not in built)
                    built.add((table, column))
