#!/usr/bin/env python3
"""The SIGMOD demo, step by step (paper §4, "A walk through").

Mirrors the portal of Fig. 2 — (A) bounded evaluability checking with a
budget, (B) bounded planning with per-fetch bound annotations, (C)
execution + performance analysis, (D)/(E) access schema discovery and
management — over a database bootstrapped purely from a SQL script.

Run:  python examples/demo_walkthrough.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import BEAS
from repro.access.io import schema_to_dict
from repro.discovery import discover
from repro.sql import run_script
from repro.storage.database import Database

SCHEMA_AND_DATA = """
CREATE TABLE call (
    pnum VARCHAR(16), recnum VARCHAR(16), date DATE, region TEXT
);
CREATE TABLE package (
    pnum VARCHAR(16), pid VARCHAR(8), start DATE, end DATE, year INT
);
CREATE TABLE business (
    pnum VARCHAR(16), type TEXT, region TEXT, PRIMARY KEY (pnum)
);

INSERT INTO business VALUES
    ('100', 'bank', 'east'), ('101', 'bank', 'east'), ('102', 'shop', 'east');
INSERT INTO package VALUES
    ('100', 'c0', '2016-01-01', '2016-12-31', 2016),
    ('101', 'c0', '2016-05-01', '2016-12-31', 2016),
    ('102', 'c1', '2016-01-01', '2016-12-31', 2016);
INSERT INTO call VALUES
    ('100', '555', '2016-06-01', 'north'),
    ('100', '556', '2016-06-01', 'south'),
    ('101', '557', '2016-06-01', 'east'),
    ('102', '558', '2016-06-01', 'west');
"""

QUERY = """
select call.region
from call, package, business
where business.type = 'bank' and business.region = 'east'
  and business.pnum = call.pnum and call.date = '2016-06-01'
  and call.pnum = package.pnum and package.year = 2016
  and package.start <= '2016-06-01' and package.end >= '2016-06-01'
  and package.pid = 'c0'
"""


def main() -> None:
    # ---- bootstrap the database from SQL -------------------------------
    db = Database(name="demo")
    loaded = run_script(db, SCHEMA_AND_DATA)
    print(
        f"loaded {len(loaded.tables_created)} tables, "
        f"{loaded.rows_inserted} rows from the SQL script"
    )

    # ---- (D) discovery: access schema from data + query patterns --------
    print("\n(D) discovering an access schema from the query pattern ...")
    result = discover(db, [QUERY], slack=50.0)  # generous headroom, demo-sized data
    print(result.describe())
    beas = BEAS(db, result.schema)

    # ---- (E) the registered schema, as the portal would render it -------
    print("\n(E) registered access schema (catalog metadata):")
    for row in beas.catalog.statistics():
        print(
            f"  {row.constraint_name} on {row.relation}: {row.key_count} keys, "
            f"{row.entry_count} entries, {row.storage_cells} cells"
        )
    print("  JSON form:", schema_to_dict(beas.catalog.schema)["constraints"][0])

    # ---- (A) bounded evaluability checking, with a budget ----------------
    print("\n(A) BE Checker:")
    session = beas.session()
    query = session.query(QUERY)
    decision = query.decide(budget=1_000_000)
    print(decision.coverage.describe())

    # ---- (B) the bounded plan, fetches annotated with bounds -------------
    print("\n(B) bounded plan:")
    print(decision.explain())

    # ---- (C) execution + performance analysis ----------------------------
    # the decision above is OVER its 1M budget, and decision.run() would
    # enforce that (BudgetExceededError); run without a budget instead
    print("\n(C) execution:")
    result = query.run()
    print(result.describe())
    print("answers:", sorted(result.to_set()))

    print("\n(C) performance analysis (Fig. 3 style):")
    print(beas.analyze_performance(QUERY).describe())


if __name__ == "__main__":
    main()
