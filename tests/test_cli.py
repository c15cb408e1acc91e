"""CLI tests (invoking repro.cli.main directly, capturing output)."""

import json
import re

import pytest

from repro.cli import main
from repro.access.io import dump_schema
from repro.storage.csvio import dump_csv

from tests.conftest import example1_access_schema, example1_database


@pytest.fixture
def workspace(tmp_path):
    """A data directory (CSV dumps of Example 1) plus the A0 schema JSON."""
    data = tmp_path / "data"
    data.mkdir()
    db = example1_database()
    for table in db:
        dump_csv(table, data / f"{table.schema.name}.csv")
    schema_path = tmp_path / "schema.json"
    dump_schema(example1_access_schema(), schema_path)
    return data, schema_path


QUERY = (
    "SELECT DISTINCT recnum FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)


class TestCheck:
    def test_covered_query_exits_zero(self, workspace, capsys):
        data, schema = workspace
        code = main(
            ["check", "--data", str(data), "--schema", str(schema), "--sql", QUERY]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "covered" in out and "500" in out

    def test_uncovered_query_exits_one(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "check", "--data", str(data), "--schema", str(schema),
                "--sql", "SELECT recnum FROM call",
            ]
        )
        assert code == 1
        assert "NOT covered" in capsys.readouterr().out

    def test_budget_reported(self, workspace, capsys):
        data, schema = workspace
        main(
            [
                "check", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--budget", "1000",
            ]
        )
        assert "within budget: True" in capsys.readouterr().out


class TestExplainAndRun:
    def test_explain_shows_fetch(self, workspace, capsys):
        data, schema = workspace
        assert main(
            ["explain", "--data", str(data), "--schema", str(schema), "--sql", QUERY]
        ) == 0
        assert "fetch[psi1]" in capsys.readouterr().out

    def test_run_prints_rows(self, workspace, capsys):
        data, schema = workspace
        assert main(
            ["run", "--data", str(data), "--schema", str(schema), "--sql", QUERY]
        ) == 0
        captured = capsys.readouterr()
        assert "recnum" in captured.out.splitlines()[0]
        assert "555" in captured.out
        assert "bounded" in captured.err

    def test_run_limit(self, workspace, capsys):
        data, schema = workspace
        main(
            [
                "run", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--limit", "1",
            ]
        )
        assert "more rows" in capsys.readouterr().out

    def test_query_from_file(self, workspace, tmp_path, capsys):
        data, schema = workspace
        query_file = tmp_path / "q.sql"
        query_file.write_text(QUERY)
        assert main(
            [
                "run", "--data", str(data), "--schema", str(schema),
                "--file", str(query_file),
            ]
        ) == 0

    def test_missing_query_is_an_error(self, workspace, capsys):
        data, schema = workspace
        assert main(
            ["run", "--data", str(data), "--schema", str(schema)]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestDiscoverAndConform:
    def test_conform_ok(self, workspace, capsys):
        data, schema = workspace
        assert main(["conform", "--data", str(data), "--schema", str(schema)]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_conform_violation(self, workspace, tmp_path, capsys):
        data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "constraints": [
                        {
                            "name": "too_tight", "relation": "call",
                            "x": ["pnum"], "y": ["recnum"], "n": 1,
                        }
                    ]
                }
            )
        )
        assert main(["conform", "--data", str(data), "--schema", str(bad)]) == 1
        assert "violations" in capsys.readouterr().out

    def test_discover_writes_schema(self, workspace, tmp_path, capsys):
        data, _ = workspace
        workload = tmp_path / "workload.sql"
        workload.write_text(QUERY + ";\nSELECT DISTINCT pid FROM package WHERE pnum = '100' AND year = 2016")
        output = tmp_path / "discovered.json"
        code = main(
            [
                "discover", "--data", str(data), "--workload", str(workload),
                "--output", str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert document["constraints"]
        assert "covering 2 queries" in capsys.readouterr().out

    def test_missing_data_dir(self, tmp_path, capsys):
        assert main(
            [
                "conform", "--data", str(tmp_path / "nope"),
                "--schema", str(tmp_path / "nope.json"),
            ]
        ) == 2


class TestServeStats:
    def test_repeated_query_reports_cache_stats(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving stats:" in out
        assert "result:" in out and "hits" in out
        assert "served_from_cache=True" in out
        assert "latency: cold" in out
        # two hits, each saving the measured cost of the miss it replaced
        saved = re.search(r"; hits saved ([0-9.]+) ms of re-execution", out)
        assert saved is not None and float(saved.group(1)) > 0

    def test_result_reuse_subsume_reports_counters(self, workspace, capsys):
        """The subsumption counters must surface in serve-stats output;
        the DISTINCT template is a refused shape, so the probe registers
        rejects rather than unsound subsumed hits."""
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "3",
                "--result-reuse", "subsume",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "subsumption:" in out
        assert "0 subsumed hits" in out  # DISTINCT is never subsumed
        assert "rejects" in out

    def test_result_reuse_counters_default_to_zero(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "2",
                # pinned: the CI matrix leg forces BEAS_RESULT_REUSE=subsume,
                # under which the DISTINCT template registers probe rejects
                "--result-reuse", "exact",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "subsumption: 0 subsumed hits, 0 rejects" in out

    def test_param_binding(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "2",
                "--param", "call.date=2016-06-02",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slots:" in out

    def test_bad_param_is_an_error(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--param", "no-equals-sign",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_once_seen_query_reports_declined_admission(self, workspace, capsys):
        """--repeat 1: the admission policy declines the one-off, and the
        eviction/decline counters surface in the serve-stats output."""
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served_from_cache=False" in out
        assert "1 admissions declined" in out
        assert "0 evictions" in out
        # the one result-cache block: what is held, and why entries left
        assert (
            "result cache: 0 entries, 0 bytes, 0 read-set keys filed, "
            "1 admissions declined; invalidated 0 exact / 0 coarse / 0 by sweep; "
            "hits saved 0.00 ms of re-execution"
        ) in out

    def test_concurrent_threads_report_shard_counters(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "5", "--threads", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "concurrent: 20 executes across 4 threads" in out
        assert "ops/s aggregate" in out
        assert "shard call:" in out
        assert "lock contention:" in out

    def test_executor_counters_reported_for_row_mode(self, workspace, capsys):
        """Regression for the PR 3 columnar fields: serve-stats must
        surface the executor counters of the cold run (row mode: no
        batching, real fetch count)."""
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "3",
                # pinned: the CI matrix legs force BEAS_EXECUTOR/
                # BEAS_PARALLELISM env defaults that would otherwise turn
                # this row-mode run columnar or pooled
                "--executor", "row", "--parallelism", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "executor: mode=row rows_per_batch=0 batches=0" in out
        assert "fetched=" in out
        assert "pool:" not in out  # no pool at parallelism 1

    def test_columnar_executor_counters_reported(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "2",
                "--executor", "columnar", "--rows-per-batch", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "executor: mode=columnar rows_per_batch=8" in out
        assert "batches=" in out and "batches=0" not in out

    def test_parallelism_reports_pool_counters(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "3", "--parallelism", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pool: workers=2 dispatched=" in out
        assert "engine pool: 2/2 workers alive" in out  # server stats line

    def test_invalid_parallelism_is_a_clear_error(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--parallelism", "0",
            ]
        )
        assert code == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_mmap_storage_line_counts_text_batches(self, workspace, tmp_path, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "2",
                "--storage", "mmap", "--storage-dir", str(tmp_path / "store"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "storage mmap at" in out
        assert "0 in text cells" in out

    def test_baseline_serves_through_the_global_shard(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "serve-stats", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY, "--repeat", "3", "--baseline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shard __global__:" in out
        assert "shard call:" not in out


class TestSqlScriptLoading:
    def test_database_from_sql_script(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "schema.sql").write_text(
            "CREATE TABLE t (k STRING, v STRING);"
            "INSERT INTO t VALUES ('a', 'x'), ('a', 'y')"
        )
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps(
                {
                    "constraints": [
                        {"name": "c", "relation": "t", "x": ["k"],
                         "y": ["v"], "n": 10}
                    ]
                }
            )
        )
        code = main(
            [
                "run", "--data", str(data), "--schema", str(schema),
                "--sql", "SELECT DISTINCT v FROM t WHERE k = 'a'",
            ]
        )
        assert code == 0
        assert "x" in capsys.readouterr().out
