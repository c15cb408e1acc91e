"""The paper's central invariant, property-tested:

    For every database D that conforms to the access schema A and every
    query Q covered by A:   Q(D_Q) = Q(D)

Random databases + a family of covered queries; the bounded executor's
answers must equal the conventional engine's (as sets — and as bags when
the plan is bag-exact).
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessSchema,
    ASCatalog,
    BoundedEvaluabilityChecker,
    BoundedPlanExecutor,
    ConventionalEngine,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)

# --------------------------------------------------------------------------- #
# a small two-relation world: orders(oid*, cust, day, item, qty), users(cust*, city, tier)
# --------------------------------------------------------------------------- #


def world_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            TableSchema(
                "orders",
                [
                    ("oid", DataType.INT),
                    ("cust", DataType.STRING),
                    ("day", DataType.STRING),
                    ("item", DataType.STRING),
                    ("qty", DataType.INT),
                ],
                keys=[("oid",)],
            ),
            TableSchema(
                "users",
                [
                    ("cust", DataType.STRING),
                    ("city", DataType.STRING),
                    ("tier", DataType.STRING),
                ],
                keys=[("cust",)],
            ),
        ]
    )


def world_access() -> AccessSchema:
    return AccessSchema(
        [
            # every (cust, day) places boundedly many orders; key exposed
            AccessConstraint(
                "orders", ["cust", "day"], ["oid", "item", "qty"], 50,
                name="by_cust_day",
            ),
            # users keyed by cust
            AccessConstraint(
                "users", ["cust"], ["city", "tier"], 1, name="user_row"
            ),
            # boundedly many users per (city, tier)
            AccessConstraint(
                "users", ["city", "tier"], ["cust"], 50, name="by_city_tier"
            ),
        ]
    )


_custs = st.sampled_from(["c1", "c2", "c3"])
_days = st.sampled_from(["d1", "d2"])
_items = st.sampled_from(["pen", "ink", "pad"])
_cities = st.sampled_from(["rome", "oslo"])
_tiers = st.sampled_from(["gold", "blue"])

_orders = st.lists(
    st.tuples(_custs, _days, _items, st.one_of(st.none(), st.integers(0, 9))),
    max_size=25,
)
_users = st.dictionaries(_custs, st.tuples(_cities, _tiers), max_size=3)


def build_world(orders, users) -> Database:
    db = Database(world_schema())
    for oid, (cust, day, item, qty) in enumerate(orders):
        db.insert("orders", (oid, cust, day, item, qty))
    for cust, (city, tier) in users.items():
        db.insert("users", (cust, city, tier))
    return db


QUERIES = [
    # single fetch, distinct
    "SELECT DISTINCT item FROM orders WHERE cust = 'c1' AND day = 'd1'",
    # single fetch with residual filter
    "SELECT DISTINCT item, qty FROM orders WHERE cust = 'c1' AND day = 'd1' AND qty > 2",
    # plain select (set semantics unless bag-exact; here key exposed => bag)
    "SELECT item FROM orders WHERE cust = 'c2' AND day = 'd2'",
    # join seeded from users by (city, tier)
    """SELECT DISTINCT o.item FROM orders o, users u
       WHERE u.city = 'rome' AND u.tier = 'gold' AND u.cust = o.cust
         AND o.day = 'd1'""",
    # join seeded from orders constants, user lookup by key
    """SELECT DISTINCT u.city FROM orders o, users u
       WHERE o.cust = 'c1' AND o.day = 'd1' AND o.cust = u.cust""",
    # IN-list keys
    "SELECT DISTINCT item FROM orders WHERE cust IN ('c1', 'c3') AND day = 'd1'",
    # duplicate-sensitive aggregate (bag-exact: oid exposed)
    "SELECT COUNT(*) FROM orders WHERE cust = 'c1' AND day = 'd1'",
    # group-by aggregate
    """SELECT item, COUNT(*) AS n, SUM(qty) FROM orders
       WHERE cust = 'c1' AND day = 'd1' GROUP BY item""",
    # aggregate over a join
    """SELECT COUNT(DISTINCT o.item) FROM orders o, users u
       WHERE u.city = 'rome' AND u.tier = 'gold' AND u.cust = o.cust
         AND o.day = 'd2'""",
    # set operation
    """SELECT DISTINCT item FROM orders WHERE cust = 'c1' AND day = 'd1'
       UNION
       SELECT DISTINCT item FROM orders WHERE cust = 'c2' AND day = 'd1'""",
]


class TestBoundedEqualsConventional:
    @settings(max_examples=120, deadline=None)
    @given(orders=_orders, users=_users, query_index=st.integers(0, len(QUERIES) - 1))
    def test_q_of_dq_equals_q_of_d(self, orders, users, query_index):
        db = build_world(orders, users)
        access = world_access()
        catalog = ASCatalog(db, access)
        checker = BoundedEvaluabilityChecker(db.schema, access)
        sql = QUERIES[query_index]

        decision = checker.check(sql)
        assert decision.covered, decision.reasons

        bounded = BoundedPlanExecutor(catalog).execute(decision.plan)
        host = ConventionalEngine(db).execute(sql)

        if decision.bag_exact:
            assert Counter(bounded.rows) == Counter(host.rows)
        else:
            assert set(bounded.rows) == set(host.rows)
        # the runtime never exceeds the deduced bound
        assert bounded.metrics.tuples_fetched <= decision.access_bound
        # and never touches base tables
        assert bounded.metrics.tuples_scanned == 0

    @settings(max_examples=60, deadline=None)
    @given(orders=_orders, users=_users)
    def test_incremental_maintenance_preserves_invariant(self, orders, users):
        """Insert rows through the maintenance manager, then re-check
        Q(D_Q) = Q(D) on the updated database."""
        from repro.maintenance import MaintenanceManager

        assume(len(orders) >= 2)
        split = len(orders) // 2
        db = build_world(orders[:split], users)
        access = world_access()
        catalog = ASCatalog(db, access)
        manager = MaintenanceManager(catalog)
        new_rows = [
            (1000 + i, cust, day, item, qty)
            for i, (cust, day, item, qty) in enumerate(orders[split:])
        ]
        manager.insert("orders", new_rows)

        checker = BoundedEvaluabilityChecker(db.schema, access)
        sql = QUERIES[0]
        decision = checker.check(sql)
        bounded = BoundedPlanExecutor(catalog).execute(decision.plan)
        host = ConventionalEngine(db).execute(sql)
        assert set(bounded.rows) == set(host.rows)
