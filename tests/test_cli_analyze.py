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
    def test_iteration_and_len(self):
        result = QueryResult(columns=["v"], rows=[(1,), (2,)])
        assert len(result) == 2
        assert list(result) == [(1,), (2,)]
        assert result.to_set() == {(1,), (2,)}
