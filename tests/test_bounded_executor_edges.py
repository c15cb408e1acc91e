"""Edge-path tests for the bounded executor: shared-class constant keys,
empty-X constraints, NULL keys, and chain-fetch consistency filtering."""

import pytest

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


def make_db(rows, columns=("a", "b", "c"), keys=()) -> Database:
    schema = DatabaseSchema(
        [
            TableSchema(
                "r",
                [(name, DataType.STRING) for name in columns],
                keys=keys,
            )
        ]
    )
    db = Database(schema)
    for row in rows:
        db.insert("r", row)
    return db


def run(db, access, sql, **kwargs):
    checker = BoundedEvaluabilityChecker(db.schema, access)
    decision = checker.check(sql)
    assert decision.covered, decision.reasons
    executor = BoundedPlanExecutor(ASCatalog(db, access), **kwargs)
    return executor.execute(decision.plan), decision


class TestSharedClassConstants:
    def test_two_x_attrs_in_one_equality_class(self):
        """``a = b AND a IN (...)``: both key parts must take the SAME
        enumerated constant, not the cartesian product."""
        db = make_db(
            [
                ("x", "x", "hit"),     # a = b = 'x': matches
                ("x", "y", "cross"),   # a != b: must NOT match via (x, y)
                ("y", "y", "hit2"),
                ("z", "z", "miss"),    # not in the IN list
            ]
        )
        access = AccessSchema(
            [AccessConstraint("r", ["a", "b"], ["c"], 10, name="ab")]
        )
        sql = "SELECT DISTINCT c FROM r WHERE a = b AND a IN ('x', 'y')"
        result, decision = run(db, access, sql)
        host = ConventionalEngine(db).execute(sql)
        assert set(result.rows) == set(host.rows) == {("hit",), ("hit2",)}
        # key bound: 2 shared constants, not 2x2
        assert decision.plan.fetch_ops[0].key_bound == 2

    def test_distinct_class_constants_do_multiply(self):
        db = make_db(
            [
                ("x", "u", "1"),
                ("x", "v", "2"),
                ("y", "u", "3"),
            ]
        )
        access = AccessSchema(
            [AccessConstraint("r", ["a", "b"], ["c"], 10, name="ab")]
        )
        sql = (
            "SELECT DISTINCT c FROM r "
            "WHERE a IN ('x', 'y') AND b IN ('u', 'v')"
        )
        result, decision = run(db, access, sql)
        host = ConventionalEngine(db).execute(sql)
        assert set(result.rows) == set(host.rows)
        assert decision.plan.fetch_ops[0].key_bound == 4


class TestEmptyXConstraint:
    def test_bounded_relation_constraint(self):
        """``R(() -> Y, N)`` encodes 'the whole relation is small'."""
        db = make_db([("1", "x", "c1"), ("2", "y", "c2")])
        access = AccessSchema(
            [AccessConstraint("r", [], ["a", "b", "c"], 10, name="whole")]
        )
        sql = "SELECT DISTINCT b FROM r WHERE c = 'c1'"
        result, decision = run(db, access, sql)
        assert set(result.rows) == {("x",)}
        assert decision.access_bound == 10

    def test_empty_x_with_join(self):
        schema = DatabaseSchema(
            [
                TableSchema("dim", [("k", DataType.STRING), ("v", DataType.STRING)]),
                TableSchema("facts", [("k", DataType.STRING), ("w", DataType.STRING)]),
            ]
        )
        db = Database(schema)
        db.insert("dim", ("k1", "v1"))
        db.insert("dim", ("k2", "v2"))
        db.insert("facts", ("k1", "w1"))
        db.insert("facts", ("k1", "w2"))
        access = AccessSchema(
            [
                AccessConstraint("dim", [], ["k", "v"], 5, name="dim_all"),
                AccessConstraint("facts", ["k"], ["w"], 5, name="facts_by_k"),
            ]
        )
        sql = (
            "SELECT DISTINCT f.w FROM dim d, facts f "
            "WHERE d.k = f.k AND d.v = 'v1'"
        )
        result, _ = run(db, access, sql)
        host = ConventionalEngine(db).execute(sql)
        assert set(result.rows) == set(host.rows) == {("w1",), ("w2",)}


class TestNullHandling:
    def test_null_join_keys_skipped(self):
        """A NULL in a fetch-key column never joins (SQL semantics)."""
        schema = DatabaseSchema(
            [
                TableSchema("s", [("k", DataType.STRING), ("tag", DataType.STRING)]),
                TableSchema("t", [("k", DataType.STRING), ("v", DataType.STRING)]),
            ]
        )
        db = Database(schema)
        db.insert("s", (None, "null-key"))
        db.insert("s", ("k1", "good"))
        db.insert("t", ("k1", "v1"))
        access = AccessSchema(
            [
                AccessConstraint("s", ["tag"], ["k"], 5, name="s_by_tag"),
                AccessConstraint("t", ["k"], ["v"], 5, name="t_by_k"),
            ]
        )
        sql = (
            "SELECT DISTINCT t.v FROM s, t "
            "WHERE s.tag IN ('null-key', 'good') AND s.k = t.k"
        )
        result, _ = run(db, access, sql)
        host = ConventionalEngine(db).execute(sql)
        assert set(result.rows) == set(host.rows) == {("v1",)}

    def test_null_y_values_preserved(self):
        db = make_db([("x", "lbl", None), ("x", "lbl", "c")], keys=())
        access = AccessSchema(
            [AccessConstraint("r", ["a"], ["c"], 5, name="by_a")]
        )
        sql = "SELECT DISTINCT c FROM r WHERE a = 'x' AND c IS NOT NULL"
        result, _ = run(db, access, sql)
        assert set(result.rows) == {("c",)}

    def test_index_fetch_null_key_never_matches(self):
        """The fetch primitive implements ``X = key``: under three-valued
        logic a NULL key part matches nothing — even when base rows with
        a genuinely-NULL X-value exist and hold a bucket."""
        from repro import AccessIndex

        db = make_db([(None, "b0", "c0"), ("k1", "b1", "c1")])
        index = AccessIndex(
            AccessConstraint("r", ["a"], ["c"], 5, name="by_a"),
            db.table("r"),
        )
        # the NULL-keyed bucket exists for storage/maintenance accounting…
        assert index.key_count == 2
        # …but an equality lookup never reaches it
        assert index.fetch((None,)) == []
        assert index.fetch([None]) == []  # a key given as a list, too
        assert index.fetch(("k1",)) == [("c1",)]

    @pytest.mark.parametrize("executor", ["row", "columnar"])
    def test_null_join_keys_differential(self, executor):
        """NULL-bearing join keys: answers must match the scan-based
        engine, and the index must never be probed with a NULL-bearing
        key."""
        schema = DatabaseSchema(
            [
                TableSchema("s", [("k", DataType.STRING), ("tag", DataType.STRING)]),
                TableSchema("t", [("k", DataType.STRING), ("v", DataType.STRING)]),
            ]
        )
        db = Database(schema)
        for row in [
            (None, "g1"), ("k1", "g1"), ("k1", "g2"), (None, "g2"), ("k2", "g1"),
        ]:
            db.insert("s", row)
        for row in [("k1", "v1"), ("k1", "v2"), ("k2", "v3"), (None, "vnull")]:
            db.insert("t", row)
        access = AccessSchema(
            [
                AccessConstraint("s", ["tag"], ["k"], 5, name="s_by_tag"),
                AccessConstraint("t", ["k"], ["v"], 5, name="t_by_k"),
            ]
        )
        sql = (
            "SELECT DISTINCT t.v FROM s, t "
            "WHERE s.tag IN ('g1', 'g2') AND s.k = t.k"
        )
        catalog = ASCatalog(db, access)
        probed: list[tuple] = []
        for index in (catalog.index_for(c) for c in access):
            original = index.fetch
            index.fetch = lambda key, _orig=original: (
                probed.append(tuple(key)) or _orig(key)
            )
        checker = BoundedEvaluabilityChecker(db.schema, access)
        decision = checker.check(sql)
        assert decision.covered, decision.reasons
        result = BoundedPlanExecutor(catalog, executor=executor).execute(
            decision.plan
        )
        host = ConventionalEngine(db).execute(sql)
        assert set(result.rows) == set(host.rows) == {("v1",), ("v2",), ("v3",)}
        assert all(None not in key for key in probed), probed

    @pytest.mark.parametrize("executor", ["row", "columnar"])
    def test_null_two_part_keys_not_presented(self, executor):
        """Two-part fetch keys that differ only in their non-NULL part:
        neither is presented, and neither may match (a NULL part makes
        the whole key unmatchable under 3VL), while a repeated key is
        presented once per row."""
        schema = DatabaseSchema(
            [
                TableSchema(
                    "s",
                    [
                        ("tag", DataType.STRING),
                        ("k1", DataType.STRING),
                        ("k2", DataType.STRING),
                        ("e", DataType.STRING),
                    ],
                ),
                TableSchema(
                    "t",
                    [
                        ("k1", DataType.STRING),
                        ("k2", DataType.STRING),
                        ("v", DataType.STRING),
                    ],
                ),
            ]
        )
        db = Database(schema)
        for row in [
            ("g", None, "a", "e1"),  # distinct NULL-bearing keys: (None, 'a')…
            ("g", None, "b", "e2"),  # …and (None, 'b') must stay distinct
            ("g", "x", "a", "e3"),   # matches
            ("g", "x", "a", "e4"),   # same key, distinct row: presented again
            ("g", "x", None, "e5"),
        ]:
            db.insert("s", row)
        db.insert("t", ("x", "a", "v1"))
        db.insert("t", (None, "a", "vnull"))  # NULL-keyed base row
        access = AccessSchema(
            [
                AccessConstraint(
                    "s", ["tag"], ["k1", "k2", "e"], 8, name="s_by_tag"
                ),
                AccessConstraint("t", ["k1", "k2"], ["v"], 8, name="t_by_k"),
            ]
        )
        sql = (
            "SELECT DISTINCT t.v FROM s, t WHERE s.tag = 'g' "
            "AND s.k1 = t.k1 AND s.k2 = t.k2"
        )
        host = ConventionalEngine(db).execute(sql)
        assert set(host.rows) == {("v1",)}
        result, _ = run(db, access, sql, executor=executor)
        assert set(result.rows) == {("v1",)}
        # the five s rows, then ('x', 'a') once per row that carries it;
        # the three NULL-bearing keys are never presented
        assert result.metrics.tuples_fetched == 5 + 2
        assert result.read_set["t_by_k"] == [("x", "a"), ("x", "a")]


class TestChainConsistency:
    def test_overlapping_y_columns_filter_consistently(self):
        """A chain fetch whose Y overlaps already-materialised columns must
        keep only matching combinations (no cross-products)."""
        db = make_db(
            [
                ("k1", "b1", "c1"),
                ("k2", "b2", "c2"),
            ],
            keys=[("a",)],
        )
        access = AccessSchema(
            [
                # anchor: exposes the key plus b
                AccessConstraint("r", ["b"], ["a"], 5, name="anchor"),
                # chain keyed by the key; y overlaps b (already materialised)
                AccessConstraint("r", ["a"], ["b", "c"], 5, name="chain"),
            ]
        )
        sql = "SELECT DISTINCT c FROM r WHERE b IN ('b1', 'b2')"
        result, decision = run(db, access, sql)
        host = ConventionalEngine(db).execute(sql)
        assert set(result.rows) == set(host.rows) == {("c1",), ("c2",)}
        names = [op.constraint.name for op in decision.plan.fetch_ops]
        assert names == ["anchor", "chain"]
