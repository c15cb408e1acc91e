"""Maintenance tests: incremental updates, violation policies, drift monitor."""

import pytest

from repro import AccessConstraint, AccessIndex, ASCatalog
from repro.errors import MaintenanceError
from repro.maintenance import (
    DriftMonitor,
    MaintenanceManager,
    ViolationPolicy,
)

from tests.conftest import example1_access_schema, example1_database


@pytest.fixture
def catalog() -> ASCatalog:
    return ASCatalog(example1_database(), example1_access_schema())


@pytest.fixture
def manager(catalog) -> MaintenanceManager:
    return MaintenanceManager(catalog)


class TestInsert:
    def test_insert_updates_table_and_indices(self, catalog, manager):
        before = len(catalog.database.table("call"))
        batch = manager.insert(
            "call", [(100, "100", "999", "2016-06-03", "east")]
        )
        assert batch.inserted == 1
        assert len(catalog.database.table("call")) == before + 1
        index = catalog.index_for(catalog.schema.get("psi1"))
        assert ("999", "east") in index.fetch(("2016-06-03", "100"))

    def test_incremental_equals_rebuild_after_batch(self, catalog, manager):
        manager.insert(
            "call",
            [
                (101, "100", "888", "2016-06-04", "east"),
                (102, "101", "777", "2016-06-04", "west"),
            ],
        )
        constraint = catalog.schema.get("psi1")
        live = catalog.index_for(constraint)
        rebuilt = AccessIndex(constraint, catalog.database.table("call"))
        assert live.snapshot() == rebuilt.snapshot()

    def test_reject_policy_rolls_back_atomically(self, catalog, manager):
        """A batch whose last row violates psi2 (N=12) must leave no trace."""
        table = catalog.database.table("package")
        before_rows = list(table.rows)
        constraint = catalog.schema.get("psi2")
        before_index = catalog.index_for(constraint).snapshot()

        violating = [
            (50 + i, "200", f"p{i}", "2016-01-01", "2016-12-31", 2016)
            for i in range(13)  # 13 distinct packages for one (pnum, year)
        ]
        with pytest.raises(MaintenanceError):
            manager.insert("package", violating)
        assert table.rows == before_rows
        assert catalog.index_for(constraint).snapshot() == before_index

    def test_adjust_policy_widens_bound(self, catalog):
        manager = MaintenanceManager(catalog, policy=ViolationPolicy.ADJUST)
        violating = [
            (50 + i, "200", f"p{i}", "2016-01-01", "2016-12-31", 2016)
            for i in range(13)
        ]
        batch = manager.insert("package", violating)
        assert "psi2" in batch.adjusted_constraints
        assert catalog.schema.get("psi2").n == 13
        # the index object now reports the widened constraint
        assert catalog.index_for(catalog.schema.get("psi2")).constraint.n == 13

    def test_adjust_policy_no_change_when_conforming(self, catalog):
        manager = MaintenanceManager(catalog, policy=ViolationPolicy.ADJUST)
        batch = manager.insert("call", [(200, "100", "123", "2016-06-05", "east")])
        assert batch.adjusted_constraints == []


class TestDelete:
    def test_delete_updates_table_and_indices(self, catalog, manager):
        row = (1, "100", "555", "2016-06-01", "north")
        batch = manager.delete("call", [row])
        assert batch.deleted == 1
        index = catalog.index_for(catalog.schema.get("psi1"))
        # (555, north) still supported by call_id 7 (duplicate pair)
        assert ("555", "north") in index.fetch(("2016-06-01", "100"))
        manager.delete("call", [(7, "100", "555", "2016-06-01", "north")])
        assert ("555", "north") not in index.fetch(("2016-06-01", "100"))

    def test_delete_missing_row_rejected_and_restored(self, catalog, manager):
        table = catalog.database.table("call")
        before, version = list(table.rows), table.version
        constraint = catalog.schema.get("psi1")
        index_before = catalog.index_for(constraint).snapshot()
        with pytest.raises(MaintenanceError):
            manager.delete(
                "call",
                [(1, "100", "555", "2016-06-01", "north"), (999, "x", "y", "2016-01-01", "z")],
            )
        # refusal is atomic: no reorder (the present row used to move to
        # the tail), no version bump, indices untouched
        assert table.rows == before
        assert table.version == version
        assert catalog.index_for(constraint).snapshot() == index_before

    def test_delete_more_occurrences_than_held_is_rejected(self, catalog, manager):
        table = catalog.database.table("call")
        before, version = list(table.rows), table.version
        with pytest.raises(MaintenanceError):
            manager.delete("call", [(1, "100", "555", "2016-06-01", "north")] * 2)
        assert table.rows == before and table.version == version

    def test_delete_accepts_a_generator(self, catalog, manager):
        # the batch used to be consumed twice, so a generator naming only
        # present rows was always refused
        victims = [(1, "100", "555", "2016-06-01", "north"), (3, "101", "557", "2016-06-01", "east")]
        batch = manager.delete("call", (row for row in victims))
        assert batch.deleted == 2
        assert not set(victims) & set(catalog.database.table("call").rows)

    def test_incremental_delete_equals_rebuild(self, catalog, manager):
        manager.delete("call", [(3, "101", "557", "2016-06-01", "east")])
        constraint = catalog.schema.get("psi1")
        rebuilt = AccessIndex(constraint, catalog.database.table("call"))
        assert catalog.index_for(constraint).snapshot() == rebuilt.snapshot()


class TestDriftMonitor:
    def test_keep_when_tight(self, catalog):
        monitor = DriftMonitor(catalog, slack=1.2, tighten_threshold=1000.0)
        report = monitor.report()
        assert all(s.kind == "keep" for s in report.suggestions)

    def test_tighten_when_bound_is_loose(self, catalog):
        # psi3 declares N=2000 but the data's max group is tiny
        monitor = DriftMonitor(catalog, slack=1.0, tighten_threshold=4.0)
        report = monitor.report()
        by_name = {s.constraint_name: s for s in report.suggestions}
        assert by_name["psi3"].kind == "tighten"
        assert by_name["psi3"].suggested_n < 2000

    def test_widen_after_unvalidated_growth(self, catalog):
        index = catalog.index_for(catalog.schema.get("psi2"))
        for i in range(13):
            index.insert_row(
                (900 + i, "300", f"q{i}", "2016-01-01", "2016-12-31", 2016),
                validate=False,
            )
        report = DriftMonitor(catalog).report()
        by_name = {s.constraint_name: s for s in report.suggestions}
        assert by_name["psi2"].kind == "widen"

    def test_apply_updates_schema(self, catalog):
        monitor = DriftMonitor(catalog, slack=1.0, tighten_threshold=4.0)
        changed = monitor.apply()
        assert "psi3" in changed
        assert catalog.schema.get("psi3").n < 2000

    def test_invalid_slack_rejected(self, catalog):
        with pytest.raises(ValueError):
            DriftMonitor(catalog, slack=0.5)

    def test_report_describe(self, catalog):
        text = DriftMonitor(catalog).report().describe()
        assert "psi1" in text
