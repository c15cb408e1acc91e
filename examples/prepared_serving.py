#!/usr/bin/env python3
"""Prepared serving: prepare once, execute many, watch the caches work.

Walks the serving layer (``repro.serving``) over the paper's Example 1
setting:

1. prepare the Example 2 query — parsed, fingerprinted, and its
   constant slots extracted exactly once;
2. execute it repeatedly: the first run pins the coverage decision and
   bounded plan, the second sighting admits the result to the cache
   (admit-on-second-hit keeps one-off queries from churning the cache),
   later runs are result-cache hits;
3. rebind the template's parameter slots (``call.date``,
   ``business.type``) — one template, many bindings;
4. run a maintenance batch and observe exact invalidation: the answer
   that fetched the ``call`` bucket the batch changed is recomputed, the
   ``package``-only results are retained;
5. print the per-cache hit/miss/eviction counters.

Run:  python examples/prepared_serving.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import Session

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)

# ---- 1. build the session (engine + serving layer) -----------------------
session = Session(example1_database(), example1_access_schema())

prepared = session.query(EXAMPLE2_SQL, name="example2")
print("== prepared template ==")
print(session.server.prepared("example2").describe())

# ---- 2. prepare once, execute many ---------------------------------------
start = time.perf_counter()
first = prepared.run()
cold_ms = (time.perf_counter() - start) * 1000

prepared.run()  # second sighting: admitted to the result cache

start = time.perf_counter()
again = prepared.run()
warm_ms = (time.perf_counter() - start) * 1000

print("\n== repeated execution ==")
print(f"cold: {sorted(first.rows)} via {first.mode.value} in {cold_ms:.2f} ms")
print(
    f"warm: served_from_cache={again.metrics.served_from_cache} "
    f"in {warm_ms:.3f} ms"
)

# ---- 3. one template, many bindings --------------------------------------
print("\n== parameter bindings ==")
for overrides in (
    {"call.date": "2016-06-02"},
    {"business.type": "shop"},
    {"business.region": "west", "business.type": "bank"},
):
    result = prepared.bind(overrides).run()
    print(f"{overrides} -> {sorted(result.rows)} ({result.mode.value})")

# ---- 4. maintenance-aware invalidation -----------------------------------
package_query = session.query(
    "SELECT pid FROM package WHERE pnum = '100' AND year = 2016",
    name="packages-of-100",
)
package_query.run()
package_query.run()  # second sighting: cached; depends only on `package`

session.insert("call", [(800, "100", "555", "2016-06-01", "harbor")])

refreshed = prepared.run()
untouched = package_query.run()
print("\n== after inserting into `call` ==")
print(
    f"example2 recomputed (cache hit: "
    f"{refreshed.metrics.served_from_cache}); "
    f"rows now {sorted(refreshed.rows)}"
)
print(
    f"packages-of-100 retained (cache hit: "
    f"{untouched.metrics.served_from_cache})"
)

# ---- 5. the counters ------------------------------------------------------
print("\n== serving stats ==")
print(session.stats().describe())
session.close()
