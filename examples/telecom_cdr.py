#!/usr/bin/env python3
"""CDR analytics on the TLC benchmark — the paper's demo scenario.

Generates a TLC instance ("2 GB"), registers the access schema A0, runs
all 11 built-in analytical queries through BEAS, and prints the Fig.-3
style performance panel for Q1 (the paper's Example 2 query) against the
in-process conventional engine, the one measured stand-in for the
paper's PostgreSQL / MySQL / MariaDB.

Run:  python examples/telecom_cdr.py [scale]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import BEAS
from repro.bench.reporting import format_table
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries


def main(scale: int = 2) -> None:
    print(f"generating TLC at scale {scale} ('{scale} GB') ...")
    ds = generate_tlc(scale=scale)
    db = ds.database
    print(
        f"  {len(db.schema)} relations, "
        f"{db.schema.total_attributes()} attributes, "
        f"{db.total_rows()} tuples"
    )

    beas = BEAS(db, tlc_access_schema())
    session = beas.session()
    print("\nregistered access schema A0:")
    print(beas.catalog.schema.describe())

    # ---- run the 11 built-in analytical queries -------------------------
    print("\n== the 11 built-in CDR analyses ==")
    rows = []
    host = beas.host_engine()
    host.statistics()  # warm the stats cache (offline ANALYZE)
    for query in tlc_queries(ds.params):
        result = session.run(query.sql)
        host_result = host.execute(query.sql)
        assert result.to_set() == set(host_result.rows), query.name
        rows.append(
            (
                query.name,
                result.mode.value,
                len(result.rows),
                result.metrics.tuples_accessed,
                host_result.metrics.tuples_scanned,
                query.description[:48],
            )
        )
    print(
        format_table(
            ("query", "mode", "rows", "BEAS access", "DBMS scan", "description"),
            rows,
        )
    )
    covered = sum(1 for r in rows if r[1] == "bounded")
    print(f"\ncovered: {covered}/11 = {covered / 11:.0%} "
          "(paper: 'more than 90% of their queries')")

    # ---- the Fig. 3 panel for Q1 ----------------------------------------
    q1 = tlc_queries(ds.params)[0]
    print("\n== performance analysis of Q1 (Fig. 3 style) ==")
    analysis = beas.analyze_performance(q1.sql)
    print(analysis.describe())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
