#!/usr/bin/env python3
"""Quickstart: bounded evaluation in ~60 lines.

Builds the paper's Example 1 setting — the ``call`` / ``package`` /
``business`` relations with access constraints ψ1, ψ2, ψ3 — and walks
the unified Session/Query/Decision/Result lifecycle on the Example 2
query: check coverage, inspect the bounded plan with its deduced
bounds, execute, and compare against the host engine.

Run:  python examples/quickstart.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    AccessConstraint,
    Database,
    DatabaseSchema,
    DataType,
    Session,
    TableSchema,
)

# ---- 1. declare the schema (Example 1 of the paper) ----------------------
schema = DatabaseSchema(
    [
        TableSchema(
            "call",
            [
                ("pnum", DataType.STRING),
                ("recnum", DataType.STRING),
                ("date", DataType.DATE),
                ("region", DataType.STRING),
            ],
        ),
        TableSchema(
            "package",
            [
                ("pnum", DataType.STRING),
                ("pid", DataType.STRING),
                ("start", DataType.DATE),
                ("end", DataType.DATE),
                ("year", DataType.INT),
            ],
        ),
        TableSchema(
            "business",
            [
                ("pnum", DataType.STRING),
                ("type", DataType.STRING),
                ("region", DataType.STRING),
            ],
        ),
    ]
)

# ---- 2. load some data ----------------------------------------------------
db = Database(schema)
db.insert("business", ("100", "bank", "east"))
db.insert("business", ("101", "bank", "east"))
db.insert("package", ("100", "c0", "2016-01-01", "2016-12-31", 2016))
db.insert("package", ("101", "c0", "2016-05-01", "2016-12-31", 2016))
db.insert("call", ("100", "555", "2016-06-01", "north"))
db.insert("call", ("100", "556", "2016-06-01", "south"))
db.insert("call", ("101", "557", "2016-06-01", "east"))

# ---- 3. register the access schema A0 (Example 1) -------------------------
session = Session(db)
session.register_all(
    [
        AccessConstraint("call", ["pnum", "date"], ["recnum", "region"], 500,
                         name="psi1"),
        AccessConstraint("package", ["pnum", "year"], ["pid", "start", "end"],
                         12, name="psi2"),
        AccessConstraint("business", ["type", "region"], ["pnum"], 2000,
                         name="psi3"),
    ]
)

# ---- 4. the Example 2 query ------------------------------------------------
QUERY = """
select call.region
from call, package, business
where business.type = 'bank' and business.region = 'east'
  and business.pnum = call.pnum and call.date = '2016-06-01'
  and call.pnum = package.pnum and package.year = 2016
  and package.start <= '2016-06-01' and package.end >= '2016-06-01'
  and package.pid = 'c0'
"""

# BE Checker: is the query covered? what will it cost, before running it?
query = session.query(QUERY)
decision = query.decide(budget=13_000_000)
print("== BE Checker ==")
print(decision.coverage.describe())
assert decision.covered
assert decision.access_bound == 2000 + 24_000 + 12_000_000  # the paper's M

# BE Plan Generator: the bounded plan, fetch by fetch
print("\n== Bounded plan ==")
print(decision.explain())

# BE Plan Executor: run it — no base table is ever scanned
result = decision.run()
print("\n== Execution ==")
print(result.describe())
print("answers:", sorted(result.to_set()))
assert result.metrics.tuples_scanned == 0

# Sanity: the host engine (scanning everything) agrees
host = session.beas.host_engine().execute(QUERY)
assert result.to_set() == set(host.rows)
print("\nhost engine agrees after scanning", host.metrics.tuples_scanned, "tuples")
session.close()
