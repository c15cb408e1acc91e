"""Regression tests: engine statistics freshness under data updates.

The statistics cache of a conventional engine was once keyed on the
table's *row count*, and ``insert``/``delete`` cleared it on the engines
present at call time; an insert+delete sequence that left the
cardinality unchanged (e.g. routed directly through
``MaintenanceManager``) served stale statistics. The cache is keyed on
:attr:`Table.version`, a monotonic mutation counter, which makes every
engine — whenever it was created, whoever mutated the data — observe
fresh statistics with no invalidation call at all.
"""

from __future__ import annotations

from repro import BEAS, ConventionalEngine
from repro.maintenance.incremental import MaintenanceManager

NEW_CALLS = [
    (801, "100", "881", "2016-07-01", "fresh-a"),
    (802, "101", "882", "2016-07-01", "fresh-b"),
]


class TestProfileEngineFreshness:
    def test_engine_created_after_insert_sees_fresh_statistics(self, ex1_beas):
        before = len(ex1_beas.database.table("call"))
        ex1_beas.insert("call", NEW_CALLS)
        engine = ex1_beas.host_engine()  # first read *after* the insert
        stats = engine.statistics()["call"]
        assert stats.row_count == before + 2
        assert stats.column("region").distinct_count >= 2

    def test_engine_created_before_insert_is_invalidated(self, ex1_beas):
        engine = ex1_beas.host_engine()
        engine.statistics()  # populate the cache
        ex1_beas.insert("call", NEW_CALLS)
        stats = engine.statistics()["call"]
        assert stats.row_count == len(ex1_beas.database.table("call"))

    def test_same_cardinality_update_does_not_serve_stale_statistics(
        self, ex1_beas
    ):
        """Insert+delete with net-zero row count, routed *around* the BEAS
        facade: the row-count-keyed cache of the seed served stale numbers
        here; the version-keyed cache must not."""
        engine = ex1_beas.host_engine()
        old_distinct = engine.statistics()["call"].column("region").distinct_count
        manager = MaintenanceManager(ex1_beas.catalog)
        victims = ex1_beas.database.table("call").rows[:2]
        manager.insert("call", NEW_CALLS)
        manager.delete("call", victims)
        assert len(ex1_beas.database.table("call")) == 7  # unchanged count
        fresh = engine.statistics()["call"]
        regions = {
            row[4] for row in ex1_beas.database.table("call").rows
        }
        assert fresh.column("region").distinct_count == len(regions)
        assert fresh.column("region").distinct_count != old_distinct

    def test_table_version_is_monotonic(self, ex1_db):
        table = ex1_db.table("call")
        version = table.version
        table.insert((990, "100", "995", "2016-08-01", "vtest"))
        assert table.version > version
        version = table.version
        table.delete_rows([(990, "100", "995", "2016-08-01", "vtest")])
        assert table.version > version
        # deleting nothing does not bump
        version = table.version
        table.delete_rows([])
        assert table.version == version

    def test_statistics_still_cached_between_reads(self, ex1_beas):
        """The fix must not break caching: identical versions reuse stats."""
        engine = ex1_beas.host_engine()
        first = engine.statistics()["call"]
        second = engine.statistics()["call"]
        assert first is second

    def test_fresh_engine_shares_no_cache_with_old_one(self, ex1_beas):
        old = ConventionalEngine(ex1_beas.database)
        old.statistics()
        ex1_beas.insert("call", NEW_CALLS)
        fresh = ConventionalEngine(ex1_beas.database)
        assert (
            fresh.statistics()["call"].row_count
            == len(ex1_beas.database.table("call"))
        )
