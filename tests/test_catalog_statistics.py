"""Unit tests for repro.catalog.statistics."""

from repro.access.conformance import check_constraint
from repro.access.constraint import AccessConstraint
from repro.catalog.schema import TableSchema
from repro.catalog.statistics import collect_statistics
from repro.catalog.types import DataType
from repro.storage.table import Table


def make_table() -> Table:
    schema = TableSchema("t", [("a", DataType.INT), ("b", DataType.STRING)])
    return Table(
        schema,
        [
            (1, "x"),
            (1, "y"),
            (2, "x"),
            (3, None),
            (3, "x"),
        ],
    )


class TestCollectStatistics:
    def test_row_count(self):
        assert collect_statistics(make_table()).row_count == 5

    def test_distinct_counts(self):
        stats = collect_statistics(make_table())
        assert stats.distinct("a") == 3
        assert stats.distinct("b") == 2

    def test_null_count(self):
        stats = collect_statistics(make_table())
        assert stats.column("b").null_count == 1
        assert stats.column("a").null_count == 0

    def test_min_max(self):
        stats = collect_statistics(make_table())
        assert stats.column("a").min_value == 1
        assert stats.column("a").max_value == 3

    def test_empty_table(self):
        schema = TableSchema("e", [("a", DataType.INT)])
        stats = collect_statistics(Table(schema))
        assert stats.row_count == 0
        assert stats.distinct("a") == 0
        assert stats.column("a").min_value is None

    def test_unknown_column_defaults(self):
        stats = collect_statistics(make_table())
        assert stats.distinct("zz") == 0


class TestGroupCardinality:
    """The largest distinct-Y group of ``R`` by ``X``, read off the access
    index the conformance check builds: the smallest valid N for
    ``R(X -> Y, N)``."""

    @staticmethod
    def tightest(table: Table, x: list[str], y: list[str]) -> int:
        constraint = AccessConstraint(table.schema.name, x, y, 0, name="t")
        return check_constraint(table, constraint).max_group_size

    def test_paper_semantics(self):
        # a=1 -> {x, y}: 2 distinct b values is the max group
        assert self.tightest(make_table(), ["a"], ["b"]) == 2

    def test_empty_x_bounds_whole_relation(self):
        # distinct (a) values overall: 3
        assert self.tightest(make_table(), [], ["a"]) == 3

    def test_empty_table(self):
        schema = TableSchema("e", [("a", DataType.INT), ("b", DataType.INT)])
        assert self.tightest(Table(schema), ["a"], ["b"]) == 0

    def test_nulls_count_as_values(self):
        # a=3 -> {None, x}: NULL is a distinct Y-value in the index bucket
        assert self.tightest(make_table(), ["a"], ["b"]) == 2
