"""CLI analyze command + QueryResult helper coverage."""

import pytest

from repro.cli import main
from repro.engine.executor import QueryResult

from tests.test_cli import workspace, QUERY  # reuse the fixture


class TestAnalyzeCommand:
    def test_analyze_prints_panel(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "analyze", "--data", str(data), "--schema", str(schema),
                "--sql", QUERY,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BEAS:" in out
        assert "conventional:" in out
        assert "per-operation breakdown" in out

    def test_analyze_uncovered_errors_cleanly(self, workspace, capsys):
        data, schema = workspace
        code = main(
            [
                "analyze", "--data", str(data), "--schema", str(schema),
                "--sql", "SELECT recnum FROM call",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQueryResultHelpers:
    def test_sorted_rows_handles_nulls_and_types(self):
        result = QueryResult(
            columns=["v"], rows=[(2,), (None,), (1,)]
        )
        # helper convention: NULLs sort last, values by type then value
        assert result.sorted_rows() == [(1,), (2,), (None,)]

    def test_sorted_rows_mixed_types_do_not_crash(self):
        result = QueryResult(columns=["v"], rows=[("b",), (1,), ("a",)])
        assert len(result.sorted_rows()) == 3

    def test_iteration_and_len(self):
        result = QueryResult(columns=["v"], rows=[(1,), (2,)])
        assert len(result) == 2
        assert list(result) == [(1,), (2,)]
        assert result.to_set() == {(1,), (2,)}
