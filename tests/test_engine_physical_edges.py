"""Physical-operator edge cases: join block boundaries, duplicate key runs,
overhead busy-work, Intermediate layout caching, materialized nodes."""

import pytest

from repro import ConventionalEngine, Database, DatabaseSchema, DataType, TableSchema
from repro.engine.logical import MaterializedNode, SetOpNode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PhysicalExecutor, _build, _tuples
from repro.engine.profiles import EngineProfile, POSTGRESQL


def two_table_db(left_rows, right_rows) -> Database:
    schema = DatabaseSchema(
        [
            TableSchema("l", [("k", DataType.INT), ("a", DataType.STRING)]),
            TableSchema("r", [("k", DataType.INT), ("b", DataType.STRING)]),
        ]
    )
    db = Database(schema)
    for row in left_rows:
        db.insert("l", row)
    for row in right_rows:
        db.insert("r", row)
    return db


JOIN_SQL = "SELECT l.a, r.b FROM l JOIN r ON l.k = r.k ORDER BY l.a, r.b"


class TestJoinAlgorithmEdges:
    def test_block_nested_across_block_boundary(self):
        """More left rows than the block size: all blocks must be visited."""
        left = [(i % 7, f"a{i}") for i in range(25)]
        right = [(k, f"b{k}") for k in range(7)]
        db = two_table_db(left, right)
        small_blocks = EngineProfile(
            name="bnl", join_algorithm="block_nested", block_size=4
        )
        got = ConventionalEngine(db, small_blocks).execute(JOIN_SQL).rows
        want = ConventionalEngine(db, POSTGRESQL).execute(JOIN_SQL).rows
        assert got == want and len(got) == 25

    def test_sort_merge_duplicate_runs(self):
        """Equal-key runs on both sides must produce the full product."""
        left = [(1, "a1"), (1, "a2"), (2, "a3")]
        right = [(1, "b1"), (1, "b2"), (1, "b3"), (2, "b4")]
        db = two_table_db(left, right)
        merge = EngineProfile(name="sm", join_algorithm="sort_merge")
        got = ConventionalEngine(db, merge).execute(JOIN_SQL).rows
        assert len(got) == 2 * 3 + 1

    def test_hash_join_build_side_choice_is_invisible(self):
        """Build side depends on sizes; answers must not."""
        big = [(i % 3, f"a{i}") for i in range(50)]
        small = [(k, f"b{k}") for k in range(3)]
        db_big_left = two_table_db(big, small)
        db_small_left = two_table_db(small, big)
        first = ConventionalEngine(db_big_left).execute(JOIN_SQL).rows
        second = ConventionalEngine(db_small_left).execute(
            "SELECT l.a, r.b FROM l JOIN r ON l.k = r.k ORDER BY l.a, r.b"
        ).rows
        assert len(first) == len(second) == 50

    def test_empty_sides(self):
        for left, right in ([[], [(1, "b")]], [[(1, "a")], []], [[], []]):
            db = two_table_db(left, right)
            assert ConventionalEngine(db).execute(JOIN_SQL).rows == []


class TestTupleHelper:
    """The one early-projection / join-key helper."""

    ROWS = [(1, "a", None), (2, "b", 2.5)]

    def test_no_columns(self):
        assert list(_tuples(self.ROWS, [])) == [(), ()]
        assert list(_tuples(iter(self.ROWS), [])) == [(), ()]  # any iterable

    def test_one_column_stays_a_one_tuple(self):
        assert list(_tuples(self.ROWS, [1])) == [("a",), ("b",)]
        assert list(_tuples(self.ROWS, [2])) == [(None,), (2.5,)]

    def test_two_columns_in_the_order_asked(self):
        assert list(_tuples(self.ROWS, [2, 0])) == [(None, 1), (2.5, 2)]

    def test_null_keys_never_build_and_nan_is_found_by_identity(self):
        nan = float("nan")
        rows = [(None, 1), (nan, 2), (nan, 3), (float("nan"), 4), (1.0, None)]
        assert _build(rows, [0]) == {
            (nan,): [(nan, 2), (nan, 3)],
            (rows[3][0],): [rows[3]],  # another NaN object is another key
            (1.0,): [(1.0, None)],
        }
        assert _build(rows, [0, 1]).keys() == {(nan, 2), (nan, 3), (rows[3][0], 4)}
        assert _build(rows, []) == {(): rows}

    def test_count_star_scan_projects_no_columns(self):
        db = two_table_db([(1, "a"), (2, "b")], [])
        assert ConventionalEngine(db).execute("SELECT COUNT(*) FROM l").rows == [(2,)]


class TestOverheadProfiles:
    def test_overhead_does_not_change_answers_or_counts(self):
        db = two_table_db([(1, "a")], [(1, "b")])
        heavy = EngineProfile(name="heavy", join_algorithm="hash", row_overhead=50)
        light = ConventionalEngine(db, POSTGRESQL).execute(JOIN_SQL)
        loaded = ConventionalEngine(db, heavy).execute(JOIN_SQL)
        assert light.rows == loaded.rows
        assert (
            light.metrics.tuples_scanned == loaded.metrics.tuples_scanned == 2
        )


class TestIntermediate:
    def test_layout_cached_and_correct(self):
        intermediate = Intermediate(labels=["x", "y"], rows=[(1, 2)])
        first = intermediate.layout
        assert first == {"x": 0, "y": 1}
        assert intermediate.layout is first  # cached

    def test_materialized_node_passthrough(self):
        db = Database()
        metrics = ExecutionMetrics()
        executor = PhysicalExecutor(db, POSTGRESQL, metrics)
        node = MaterializedNode(labels=["v"], rows=[(1,), (2,)])
        result = executor.run(node)
        assert result.rows == [(1,), (2,)]

    def test_set_op_over_materialized_nodes(self):
        db = Database()
        executor = PhysicalExecutor(db, POSTGRESQL, ExecutionMetrics())
        left = MaterializedNode(labels=["v"], rows=[(1,), (2,), (2,)])
        right = MaterializedNode(labels=["v"], rows=[(2,)])
        union = executor.run(SetOpNode("UNION", left, right))
        assert sorted(union.rows) == [(1,), (2,)]
        except_all = executor.run(SetOpNode("EXCEPT", left, right, all=True))
        assert sorted(except_all.rows) == [(1,), (2,)]
        intersect_all = executor.run(SetOpNode("INTERSECT", left, right, all=True))
        assert intersect_all.rows == [(2,)]
