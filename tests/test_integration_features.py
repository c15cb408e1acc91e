"""Cross-cutting integration tests: BEAS facade updates, TLC export + CLI,
discovery batch fallback on multi-relation workloads."""

import pytest

from repro import BEAS, ExecutionMode
from repro.cli import main
from repro.discovery import discover
from repro.errors import MaintenanceError
from repro.workloads.tlc import export_tlc, generate_tlc, tlc_access_schema

from tests.conftest import EXAMPLE2_SQL, example1_access_schema, example1_database


class TestBeasUpdates:
    def test_insert_keeps_bounded_answers_fresh(self, ex1_beas):
        sql = (
            "SELECT DISTINCT recnum FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        before = ex1_beas.session().run(sql)
        ex1_beas.insert("call", [(99, "100", "999", "2016-06-01", "east")])
        after = ex1_beas.session().run(sql)
        assert after.metrics.tuples_scanned == 0
        assert after.to_set() == before.to_set() | {("999",)}

    def test_delete_keeps_bounded_answers_fresh(self, ex1_beas):
        ex1_beas.delete("call", [(1, "100", "555", "2016-06-01", "north")])
        sql = (
            "SELECT DISTINCT recnum, region FROM call "
            "WHERE pnum = '100' AND date = '2016-06-01'"
        )
        result = ex1_beas.session().run(sql)
        # call_id 7 still supports (555, north)
        assert ("555", "north") in result.to_set()
        ex1_beas.delete("call", [(7, "100", "555", "2016-06-01", "north")])
        result = ex1_beas.session().run(sql)
        assert ("555", "north") not in result.to_set()

    def test_violating_insert_rejected(self, ex1_beas):
        rows = [
            (200 + i, "300", f"p{i}", "2016-01-01", "2016-12-31", 2016)
            for i in range(13)
        ]
        with pytest.raises(MaintenanceError):
            ex1_beas.insert("package", rows)

    def test_violating_insert_adjusts_when_asked(self, ex1_beas):
        rows = [
            (200 + i, "300", f"p{i}", "2016-01-01", "2016-12-31", 2016)
            for i in range(13)
        ]
        batch = ex1_beas.insert("package", rows, adjust_bounds=True)
        assert "psi2" in batch.adjusted_constraints
        # plans must pick up the widened bound
        decision = ex1_beas.check(
            "SELECT DISTINCT pid FROM package WHERE pnum = '300' AND year = 2016"
        )
        assert decision.covered and decision.access_bound == 13

    def test_host_statistics_invalidated(self, ex1_beas):
        host = ex1_beas.host_engine()
        before = host.statistics()["call"].row_count
        ex1_beas.insert("call", [(98, "101", "888", "2016-06-02", "west")])
        assert host.statistics()["call"].row_count == before + 1


class TestTlcExportAndCli:
    def test_export_then_query_via_cli(self, tmp_path, capsys):
        ds = generate_tlc(scale=1)
        target = export_tlc(ds, tmp_path / "tlc")
        assert (target / "call.csv").exists()
        assert (target / "access_schema.json").exists()
        assert (target / "PARAMS.txt").exists()

        code = main(
            [
                "run",
                "--data", str(target),
                "--schema", str(target / "access_schema.json"),
                "--sql",
                f"SELECT DISTINCT pnum FROM business "
                f"WHERE type = '{ds.params.t0}' AND region = '{ds.params.r0}'",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert ds.params.p0 in captured.out
        assert "bounded" in captured.err

    def test_exported_tables_round_trip(self, tmp_path):
        from repro.storage.csvio import load_csv

        ds = generate_tlc(scale=1)
        target = export_tlc(ds, tmp_path / "tlc")
        back = load_csv(target / "business.csv", table_name="business")
        assert back.rows == ds.database.table("business").rows


class TestDiscoveryBatchFallback:
    def test_single_multi_relation_query_workload(self):
        """A workload of one 3-way-join query: no single constraint helps,
        the batch step must still discover a covering schema."""
        db = example1_database()
        result = discover(db, [EXAMPLE2_SQL], slack=100.0)
        assert result.covered_queries == {0}
        # and the result is minimal-ish: pruning removed redundant picks
        assert len(result.selected) <= 4

    def test_batch_respects_budget(self):
        db = example1_database()
        unlimited = discover(db, [EXAMPLE2_SQL], slack=100.0)
        result = discover(
            db, [EXAMPLE2_SQL], slack=100.0,
            storage_budget=unlimited.storage_used // 4,
        )
        assert result.covered_queries == set()
        assert result.storage_used <= unlimited.storage_used // 4

    def test_discovered_schema_executes_correctly(self):
        db = example1_database()
        result = discover(db, [EXAMPLE2_SQL], slack=100.0)
        beas = BEAS(db, result.schema)
        mine = beas.session().run(EXAMPLE2_SQL)
        assert mine.mode is ExecutionMode.BOUNDED
        host = beas.host_engine().execute(EXAMPLE2_SQL)
        assert mine.to_set() == set(host.rows)
