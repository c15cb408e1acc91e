"""Access schema subsystem tests: constraints, index, conformance, catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AccessConstraint, AccessIndex, AccessSchema, ASCatalog, Database
from repro.access.conformance import check_constraint, check_database
from repro.catalog.schema import DatabaseSchema, TableSchema
from repro.catalog.types import DataType
from repro.errors import AccessSchemaError, ConformanceError
from repro.storage.table import Table

from tests.conftest import example1_access_schema, example1_database


def rel_schema() -> TableSchema:
    return TableSchema(
        "r", [("x", DataType.INT), ("y", DataType.INT), ("z", DataType.STRING)],
        keys=[("x", "y")],
    )


class TestAccessConstraint:
    def test_attributes_sorted_and_deduped(self):
        c = AccessConstraint("r", ["y", "x", "x"], ["z"], 5)
        assert c.x == ("x", "y") and c.y == ("z",)

    def test_str_rendering(self):
        c = AccessConstraint("r", ["x"], ["y"], 3, name="psi")
        assert str(c) == "psi: r({x} -> {y}, 3)"

    def test_empty_x_allowed(self):
        c = AccessConstraint("r", [], ["y"], 10)
        assert c.x == ()

    def test_empty_y_rejected(self):
        with pytest.raises(AccessSchemaError):
            AccessConstraint("r", ["x"], [], 3)

    def test_overlapping_x_y_rejected(self):
        with pytest.raises(AccessSchemaError):
            AccessConstraint("r", ["x"], ["x", "y"], 3)

    def test_negative_n_rejected(self):
        with pytest.raises(AccessSchemaError):
            AccessConstraint("r", ["x"], ["y"], -1)

    def test_validate_against_schema(self):
        AccessConstraint("r", ["x"], ["y"], 1).validate_against(rel_schema())

    def test_validate_rejects_unknown_attr(self):
        with pytest.raises(AccessSchemaError):
            AccessConstraint("r", ["nope"], ["y"], 1).validate_against(rel_schema())

    def test_validate_rejects_wrong_relation(self):
        with pytest.raises(AccessSchemaError):
            AccessConstraint("other", ["x"], ["y"], 1).validate_against(rel_schema())

    def test_covers_key(self):
        assert AccessConstraint("r", ["x"], ["y"], 1).covers_key_of(rel_schema())
        assert not AccessConstraint("r", ["x"], ["z"], 1).covers_key_of(rel_schema())

    def test_auto_names_unique(self):
        a = AccessConstraint("r", ["x"], ["y"], 1)
        b = AccessConstraint("r", ["x"], ["y"], 1)
        assert a.name != b.name

    def test_equality_ignores_name(self):
        a = AccessConstraint("r", ["x"], ["y"], 1, name="a")
        b = AccessConstraint("r", ["x"], ["y"], 1, name="b")
        assert a == b


class TestAccessIndex:
    def make_table(self, rows) -> Table:
        return Table(rel_schema(), rows)

    def test_build_and_fetch(self):
        table = self.make_table([(1, 10, "a"), (1, 20, "b"), (2, 10, "c")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        assert sorted(index.fetch((1,))) == [(10,), (20,)]
        assert index.fetch((2,)) == [(10,)]
        assert index.fetch((99,)) == []

    def test_fetch_distinct_y_values(self):
        table = self.make_table([(1, 10, "a"), (1, 10, "b")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        assert index.fetch((1,)) == [(10,)]

    def test_multi_attribute_key_order_is_sorted_x(self):
        table = self.make_table([(1, 10, "a")])
        # declared as [y, x] but canonical order is (x, y)
        index = AccessIndex(AccessConstraint("r", ["y", "x"], ["z"], 5), table)
        assert index.fetch((1, 10)) == [("a",)]

    def test_build_validates_bound(self):
        table = self.make_table([(1, 10, "a"), (1, 20, "b")])
        with pytest.raises(ConformanceError):
            AccessIndex(AccessConstraint("r", ["x"], ["y"], 1), table)

    def test_build_without_validation_allows_overflow(self):
        table = self.make_table([(1, 10, "a"), (1, 20, "b")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 1))
        index.build(table, validate=False)
        assert index.max_bucket_size == 2

    def test_fetch_many_dedupes_preserving_order(self):
        table = self.make_table([(1, 10, "a"), (2, 10, "b"), (2, 30, "c")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        assert index.fetch_many([(1,), (2,)]) == [(10,), (30,)]

    def test_entry_and_key_counts(self):
        table = self.make_table([(1, 10, "a"), (1, 20, "b"), (2, 10, "c")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        assert index.key_count == 2
        assert index.entry_count == 3
        assert index.storage_cells() == 2 * 1 + 3 * 1

    def test_insert_then_delete_row_restores_state(self):
        table = self.make_table([(1, 10, "a")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        before = index.snapshot()
        index.insert_row((1, 30, "q"))
        assert index.fetch((1,)) == [(10,), (30,)]
        index.delete_row((1, 30, "q"))
        assert index.snapshot() == before

    def test_delete_respects_support_counts(self):
        # two rows supporting the same (x, y): deleting one keeps the entry
        table = self.make_table([(1, 10, "a"), (1, 10, "b")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        index.delete_row((1, 10, "a"))
        assert index.fetch((1,)) == [(10,)]
        index.delete_row((1, 10, "b"))
        assert index.fetch((1,)) == []

    def test_delete_missing_row_rejected(self):
        table = self.make_table([(1, 10, "a")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 5), table)
        with pytest.raises(AccessSchemaError):
            index.delete_row((9, 9, "q"))

    def test_insert_violation_detected(self):
        table = self.make_table([(1, 10, "a")])
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 1), table)
        with pytest.raises(ConformanceError):
            index.insert_row((1, 20, "b"))

    def test_unbuilt_index_rejects_updates(self):
        index = AccessIndex(AccessConstraint("r", ["x"], ["y"], 1))
        with pytest.raises(AccessSchemaError):
            index.insert_row((1, 10, "a"))

    def test_empty_x_constraint(self):
        table = self.make_table([(1, 10, "a"), (2, 20, "b")])
        index = AccessIndex(AccessConstraint("r", [], ["y"], 10), table)
        assert sorted(index.fetch(())) == [(10,), (20,)]

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from("ab")),
            max_size=15,
        ),
        inserts=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from("ab")),
            max_size=8,
        ),
        delete_positions=st.lists(st.integers(0, 100), max_size=6),
    )
    def test_incremental_equals_rebuild(self, initial, inserts, delete_positions):
        """After arbitrary updates, incremental state == full rebuild."""
        constraint = AccessConstraint("r", ["x"], ["y", "z"], 100)
        table = self.make_table(initial)
        index = AccessIndex(constraint, table)

        for row in inserts:
            table.insert(row)
            index.insert_row(row)
        for position in delete_positions:
            if not table.rows:
                break
            row = table.rows[position % len(table.rows)]
            table.delete_rows([row])
            index.delete_row(row)

        rebuilt = AccessIndex(constraint, table)
        assert index.snapshot() == rebuilt.snapshot()


class TestConformance:
    def test_conforming_database(self, ):
        db = example1_database()
        report = check_database(db, example1_access_schema())
        assert report.conforms
        assert report.checked_constraints == 3

    def test_violation_reported_with_details(self):
        table = Table(rel_schema(), [(1, 10, "a"), (1, 20, "b"), (1, 30, "c")])
        report = check_constraint(table, AccessConstraint("r", ["x"], ["y"], 2))
        assert not report.conforms
        assert report.violations[0].actual == 3
        assert report.violations[0].x_value == (1,)
        assert "bound 2" in str(report.violations[0])

    def test_tightest_bound(self):
        table = Table(rel_schema(), [(1, 10, "a"), (1, 20, "b"), (2, 10, "c")])
        report = check_constraint(table, AccessConstraint("r", ["x"], ["y"], 99))
        assert report.tightest_bound() == 2

    def test_empty_table_conforms(self):
        report = check_constraint(
            Table(rel_schema()), AccessConstraint("r", ["x"], ["y"], 0)
        )
        assert report.conforms


class TestAccessSchema:
    def test_add_get_remove(self):
        schema = AccessSchema()
        c = AccessConstraint("r", ["x"], ["y"], 1, name="c1")
        schema.add(c)
        assert schema.get("c1") is c
        assert "c1" in schema
        schema.remove("c1")
        assert "c1" not in schema

    def test_duplicate_name_rejected(self):
        schema = AccessSchema([AccessConstraint("r", ["x"], ["y"], 1, name="c1")])
        with pytest.raises(AccessSchemaError):
            schema.add(AccessConstraint("r", ["x"], ["z"], 1, name="c1"))

    def test_constraints_for_relation(self):
        schema = example1_access_schema()
        assert [c.name for c in schema.constraints_for("call")] == ["psi1"]

    def test_relations(self):
        assert example1_access_schema().relations() == {
            "call", "package", "business",
        }

    def test_validate_against_database_schema(self, ex1_schema):
        example1_access_schema().validate_against(ex1_schema)

    def test_describe_lists_all(self):
        text = example1_access_schema().describe()
        assert "psi1" in text and "psi3" in text


class TestASCatalog:
    def test_register_builds_index_and_stats(self):
        db = example1_database()
        catalog = ASCatalog(db)
        constraint = AccessConstraint(
            "call", ["pnum", "date"], ["recnum", "region"], 500, name="psi1"
        )
        index = catalog.register(constraint)
        assert index.key_count > 0
        stats = catalog.statistics_for("psi1")
        assert stats.relation == "call"
        assert stats.entry_count == index.entry_count

    def test_register_validates_conformance(self):
        db = example1_database()
        catalog = ASCatalog(db)
        tight = AccessConstraint("call", ["pnum"], ["recnum"], 1, name="bad")
        with pytest.raises(ConformanceError):
            catalog.register(tight)

    def test_constructor_builds_all(self):
        catalog = ASCatalog(example1_database(), example1_access_schema())
        assert len(catalog.statistics()) == 3

    def test_index_for_unregistered_rejected(self):
        catalog = ASCatalog(example1_database())
        with pytest.raises(AccessSchemaError):
            catalog.index_for(AccessConstraint("call", ["pnum"], ["recnum"], 5))

    def test_unregister(self):
        catalog = ASCatalog(example1_database(), example1_access_schema())
        catalog.unregister("psi1")
        assert "psi1" not in catalog.schema
        assert all(s.constraint_name != "psi1" for s in catalog.statistics())

    def test_total_storage(self):
        catalog = ASCatalog(example1_database(), example1_access_schema())
        assert catalog.total_storage_cells() == sum(
            s.storage_cells for s in catalog.statistics()
        )

    def test_statistics_rows_read_what_the_index_reports(self):
        """The one pass over the buckets reports what each of the
        index's own counters does."""
        catalog = ASCatalog(example1_database(), example1_access_schema())
        for stats in catalog.statistics():
            index = catalog.index_for(catalog.schema.get(stats.constraint_name))
            assert (
                stats.key_count,
                stats.entry_count,
                stats.max_bucket_size,
                stats.storage_cells,
            ) == (
                index.key_count,
                index.entry_count,
                index.max_bucket_size,
                index.storage_cells(),
            )

    def test_verify_conformance(self):
        catalog = ASCatalog(example1_database(), example1_access_schema())
        assert catalog.verify_conformance().conforms
        catalog.require_conformance()  # must not raise

    def test_require_conformance_raises_after_drift(self):
        db = example1_database()
        catalog = ASCatalog(db, example1_access_schema())
        # sneak rows in behind the catalog's back until psi2 (N=12) breaks
        for i in range(13):
            db.insert("package", (100 + i, "100", f"p{i}", "2016-01-01", "2016-12-31", 2016))
        with pytest.raises(ConformanceError):
            catalog.require_conformance()
