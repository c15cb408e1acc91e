"""beaslint: the house checkers must catch the historical bug classes.

Each checker encodes an invariant a prior PR fixed a real bug against;
the known-bad fixtures below re-introduce exactly those bugs and must
be flagged with the right rule id at the right line. Known-good
fixtures are the repaired spellings and must stay silent.
"""

import json
import textwrap

import pytest

from repro.analysis import all_checkers, lint_source, run_lint
from repro.analysis.core import SUPPRESSION_RULE


def _lint(source, relpath, rules=None):
    return lint_source(textwrap.dedent(source), relpath, rules=rules)


def _hits(report, rule):
    return [f for f in report.findings if f.rule == rule]


def test_registry_has_all_house_rules():
    assert set(all_checkers()) == {
        "null-guard",
        "lock-discipline",
        "env-access",
        "metrics-accounting",
        "cache-guard",
        "except-discipline",
        "storage-codec",
        "table-mutation",
        "remote-dispatch",
    }


# --------------------------------------------------------------------------- #
# null-guard — PR 6's unguarded interval comparator
# --------------------------------------------------------------------------- #
class TestNullGuard:
    def test_flags_unguarded_row_comparison(self):
        # PR 6's bug: the interval comparator compared row values
        # directly, so a NULL either crashed or ordered like a value.
        report = _lint(
            """\
            def _compile_interval_check(index, low):
                return lambda row: row[index] >= low
            """,
            "engine/expressions.py",
        )
        hits = _hits(report, "null-guard")
        assert len(hits) == 1
        assert hits[0].line == 2

    def test_guarded_comparison_passes(self):
        # the PR 6 fix: a walrus guard dominating the comparison
        report = _lint(
            """\
            def _compile_interval_check(index, low):
                return lambda row: (v := row[index]) is not None and v >= low
            """,
            "engine/expressions.py",
        )
        assert not _hits(report, "null-guard")

    def test_flags_name_assigned_from_subscript(self):
        report = _lint(
            """\
            def admits(row, index, low):
                value = row[index]
                return value >= low
            """,
            "engine/columnar.py",
        )
        hits = _hits(report, "null-guard")
        assert len(hits) == 1
        assert hits[0].line == 3

    def test_guard_in_enclosing_scope_counts(self):
        report = _lint(
            """\
            def admits(row, index, low):
                value = row[index]
                if value is None:
                    return False
                return value >= low
            """,
            "engine/columnar.py",
        )
        assert not _hits(report, "null-guard")

    def test_flags_equality_with_none_literal(self):
        report = _lint(
            """\
            def is_null(row, index):
                return row[index] == None
            """,
            "engine/expressions.py",
        )
        assert _hits(report, "null-guard")

    def test_out_of_scope_module_is_exempt(self):
        report = _lint(
            """\
            def admits(row, index, low):
                return row[index] >= low
            """,
            "serving/server.py",
        )
        assert not _hits(report, "null-guard")

    def test_plain_parameter_comparison_is_not_flagged(self):
        report = _lint(
            """\
            def clamp(n, max_per_shape):
                if max_per_shape < 1:
                    return 1
                return min(n, max_per_shape)
            """,
            "engine/expressions.py",
        )
        assert not _hits(report, "null-guard")


# --------------------------------------------------------------------------- #
# lock-discipline — holds only through serving/shard.py's grant/release
# --------------------------------------------------------------------------- #
class TestLockDiscipline:
    def test_flags_raw_acquire_outside_shard_module(self):
        report = _lint(
            """\
            def grab(self, name):
                shard = self.shard(name)
                shard.lock.acquire_read()
            """,
            "serving/server.py",
        )
        hits = _hits(report, "lock-discipline")
        assert len(hits) == 1
        assert hits[0].line == 3

    def test_schema_lock_is_not_exempt(self):
        report = _lint(
            """\
            def grab(self):
                self._schema_lock.acquire_read()
                self._schema_lock.release_read()
            """,
            "serving/server.py",
        )
        assert [hit.line for hit in _hits(report, "lock-discipline")] == [2, 3]

    def test_grant_and_release_pass(self):
        report = _lint(
            """\
            def read(self, tables):
                locks = self.read_locks(tables)
                grant(locks)
                release(locks)
                with self._schema_lock.write():
                    pass
            """,
            "serving/server.py",
        )
        assert not _hits(report, "lock-discipline")

    def test_shard_module_itself_is_exempt(self):
        report = _lint(
            """\
            def acquire_read(self):
                return grant((self,))

            def release_read(self):
                self.lock.release_read()
            """,
            "serving/shard.py",
        )
        assert not _hits(report, "lock-discipline")

    def test_write_grant_then_dispatch_is_flagged(self):
        report = _lint(
            """\
            def maintain(self, lock, plan):
                grant((self._schema_lock,), lock)
                return self._engine.execute(plan)
            """,
            "serving/server.py",
        )
        assert [hit.line for hit in _hits(report, "lock-discipline")] == [3]

    def test_flags_dispatch_under_leaf_mutex(self):
        report = _lint(
            """\
            def serve_locked(self, plan):
                with self._mutex:
                    return self._engine.execute(plan)
            """,
            "serving/server.py",
        )
        hits = _hits(report, "lock-discipline")
        assert len(hits) == 1
        assert hits[0].line == 3

    def test_dispatch_after_release_passes(self):
        report = _lint(
            """\
            def serve_unlocked(self, plan):
                with self._mutex:
                    snapshot = self._state.copy()
                return self._engine.execute(plan)
            """,
            "serving/server.py",
        )
        assert not _hits(report, "lock-discipline")

    def test_engine_module_write_grant_then_dispatch_is_flagged(self):
        # the engine holds the serving locks: rule 3 covers it too
        report = _lint(
            """\
            def _maintain(self, op, table_name, rows, policy):
                grant((self._schema_lock,), self.shard(table_name).lock)
                return self.evaluate(rows, policy)
            """,
            "beas/system.py",
        )
        assert [hit.line for hit in _hits(report, "lock-discipline")] == [3]

    def test_engine_module_dispatch_under_leaf_mutex_is_flagged(self):
        # ... and rule 2
        report = _lint(
            """\
            def prepare(self, plan):
                with self._admin_lock:
                    return self.runner.execute(plan)
            """,
            "beas/system.py",
        )
        assert [hit.line for hit in _hits(report, "lock-discipline")] == [3]


# --------------------------------------------------------------------------- #
# env-access — PR 5's centralised BEAS_* validation
# --------------------------------------------------------------------------- #
class TestEnvAccess:
    def test_flags_environ_read_outside_config(self):
        report = _lint(
            """\
            import os

            def resolve_mode():
                return os.environ.get("BEAS_EXECUTOR", "row")
            """,
            "engine/executor.py",
        )
        hits = _hits(report, "env-access")
        assert len(hits) == 1
        assert hits[0].line == 4

    def test_flags_getenv_and_from_import(self):
        report = _lint(
            """\
            import os
            from os import environ

            mode = os.getenv("BEAS_ROUTING")
            """,
            "engine/router.py",
        )
        assert len(_hits(report, "env-access")) == 2

    def test_config_module_is_exempt(self):
        report = _lint(
            """\
            import os

            def _env_int(name):
                return os.environ.get(name)
            """,
            "config.py",
        )
        assert not _hits(report, "env-access")


# --------------------------------------------------------------------------- #
# metrics-accounting — PR 7's seconds=0.0 serve latencies
# --------------------------------------------------------------------------- #
class TestMetricsAccounting:
    def test_flags_hardcoded_zero_seconds(self):
        # PR 7's bug: cache-hit serves reported seconds=0.0, poisoning
        # the learned router's cost model and cost-aware admission.
        report = _lint(
            """\
            def serve_cached(entry):
                return ExecutionMetrics(rows_output=len(entry.rows), seconds=0.0)
            """,
            "serving/server.py",
        )
        hits = _hits(report, "metrics-accounting")
        assert len(hits) == 1
        assert hits[0].line == 2
        assert "seconds=0" in hits[0].message

    def test_flags_undeclared_field(self):
        report = _lint(
            """\
            def serve(entry):
                return ExecutionMetrics(total_rows=5)
            """,
            "serving/server.py",
        )
        hits = _hits(report, "metrics-accounting")
        assert len(hits) == 1
        assert "total_rows" in hits[0].message

    def test_flags_zero_literal_attribute_write(self):
        report = _lint(
            """\
            def reset(metrics):
                metrics.seconds = 0.0
            """,
            "engine/executor.py",
        )
        assert _hits(report, "metrics-accounting")

    def test_measured_seconds_pass(self):
        report = _lint(
            """\
            import time

            def serve_cached(entry, start):
                return ExecutionMetrics(
                    rows_output=len(entry.rows),
                    seconds=time.perf_counter() - start,
                )
            """,
            "serving/server.py",
        )
        assert not _hits(report, "metrics-accounting")

    def test_bare_construction_passes(self):
        report = _lint(
            """\
            def fresh():
                return ExecutionMetrics()
            """,
            "engine/executor.py",
        )
        assert not _hits(report, "metrics-accounting")


# --------------------------------------------------------------------------- #
# cache-guard — PR 6's version-vector freshness invariant
# --------------------------------------------------------------------------- #
class TestCacheGuard:
    def test_flags_guard_free_cache_serve(self):
        # PR 6's invariant: rows may only leave a cache after the entry
        # is revalidated against versions / the schema generation.
        report = _lint(
            """\
            def serve(self, key):
                entry = self._results.lookup(key)
                if entry is not None:
                    return entry.rows
                return None
            """,
            "serving/server.py",
        )
        hits = _hits(report, "cache-guard")
        assert len(hits) == 1
        assert hits[0].line == 2

    def test_freshness_checked_serve_passes(self):
        report = _lint(
            """\
            def serve(self, key):
                entry = self._results.lookup(key)
                if entry is not None and self._entry_fresh(entry):
                    return entry.rows
                return None
            """,
            "serving/server.py",
        )
        assert not _hits(report, "cache-guard")

    def test_version_vector_reference_counts(self):
        report = _lint(
            """\
            def serve(self, key, versions):
                entry = self._results.peek(key)
                if entry is not None and entry.versions == versions:
                    return entry.rows
                return None
            """,
            "serving/async_server.py",
        )
        assert not _hits(report, "cache-guard")

    def test_shard_and_cache_modules_are_exempt(self):
        source = """\
            def lookup(self, key):
                return self._entries.lookup(key)
            """
        for relpath in ("serving/shard.py", "serving/cache.py"):
            assert not _hits(_lint(source, relpath), "cache-guard")

    def test_engine_module_guard_free_cache_serve_is_flagged(self):
        # the engine holds the serving caches: the rule covers it
        report = _lint(
            """\
            def serve(self, key):
                entry = self.results.lookup(key)
                return entry.rows if entry is not None else None
            """,
            "beas/system.py",
        )
        assert [hit.line for hit in _hits(report, "cache-guard")] == [2]

    def test_non_serving_module_is_exempt(self):
        report = _lint(
            """\
            def probe(self, key):
                return self._candidates.lookup(key)
            """,
            "engine/expressions.py",
        )
        assert not _hits(report, "cache-guard")


# --------------------------------------------------------------------------- #
# except-discipline — unjustified broad catches
# --------------------------------------------------------------------------- #
class TestExceptDiscipline:
    def test_flags_unjustified_broad_except(self):
        report = _lint(
            """\
            def probe(expr):
                try:
                    return compile(expr)
                except Exception:
                    return None
            """,
            "engine/expressions.py",
        )
        hits = _hits(report, "except-discipline")
        assert len(hits) == 1
        assert hits[0].line == 4

    def test_flags_bare_except(self):
        report = _lint(
            """\
            def probe(expr):
                try:
                    return compile(expr)
                except:
                    return None
            """,
            "engine/pool.py",
        )
        assert _hits(report, "except-discipline")

    def test_narrow_except_passes(self):
        report = _lint(
            """\
            def probe(expr):
                try:
                    return compile(expr)
                except ValueError:
                    return None
            """,
            "engine/expressions.py",
        )
        assert not _hits(report, "except-discipline")

    def test_noqa_with_reason_passes(self):
        report = _lint(
            """\
            def worker(task):
                try:
                    return run(task)
                except Exception as error:  # noqa: BLE001 - worker boundary, parent re-runs
                    return ("unsupported", repr(error))
            """,
            "engine/pool.py",
        )
        assert not _hits(report, "except-discipline")

    def test_noqa_without_reason_is_flagged(self):
        report = _lint(
            """\
            def worker(task):
                try:
                    return run(task)
                except Exception:  # noqa: BLE001
                    return None
            """,
            "engine/pool.py",
        )
        assert _hits(report, "except-discipline")


# --------------------------------------------------------------------------- #
# storage-codec — PR 9's divergent ad-hoc value coding on storage boundaries
# --------------------------------------------------------------------------- #
class TestStorageCodec:
    def test_flags_adhoc_float_parse_in_storage_module(self):
        report = _lint(
            """\
            def read_cell(text):
                return float(text)
            """,
            "storage/csvio.py",
        )
        hits = _hits(report, "storage-codec")
        assert len(hits) == 1
        assert hits[0].line == 2

    def test_flags_adhoc_repr_print_in_storage_module(self):
        report = _lint(
            """\
            def write_cell(value):
                return repr(value)
            """,
            "storage/wal.py",
        )
        assert len(_hits(report, "storage-codec")) == 1

    def test_codec_module_is_exempt(self):
        report = _lint(
            """\
            def encode_value(value):
                return repr(value) if isinstance(value, float) else str(value)
            """,
            "storage/codec.py",
        )
        assert not _hits(report, "storage-codec")

    def test_non_storage_modules_are_exempt(self):
        report = _lint(
            """\
            def describe(value):
                return repr(float(value))
            """,
            "serving/server.py",
        )
        assert not _hits(report, "storage-codec")

    def test_codec_call_is_silent(self):
        report = _lint(
            """\
            from repro.storage.codec import encode_value

            def write_cell(value):
                return encode_value(value)
            """,
            "storage/mmapstore.py",
        )
        assert not _hits(report, "storage-codec")

    # -- PR 10: wire framing in distributed/ modules ------------------- #
    def test_flags_adhoc_struct_framing_in_distributed_module(self):
        # the fleet wire must reuse the WAL's u32len|u32crc framing, not
        # mint a second header layout with struct.pack
        report = _lint(
            """\
            import struct

            def send_frame(sock, payload):
                header = struct.pack("<II", len(payload), 0)
                sock.sendall(header + payload)
            """,
            "distributed/protocol.py",
        )
        hits = _hits(report, "storage-codec")
        assert len(hits) == 1
        assert "frame_record" in hits[0].message

    def test_wal_framing_helpers_in_distributed_module_are_silent(self):
        report = _lint(
            """\
            from repro.storage.wal import frame_record, split_frame_header

            def send_frame(sock, payload):
                sock.sendall(frame_record(payload))

            def read_header(header):
                return split_frame_header(header)
            """,
            "distributed/protocol.py",
        )
        assert not _hits(report, "storage-codec")

    def test_flags_adhoc_value_coding_in_distributed_module(self):
        report = _lint(
            """\
            def encode_cell(value):
                return repr(value)
            """,
            "distributed/replica.py",
        )
        assert len(_hits(report, "storage-codec")) == 1

    def test_struct_in_storage_module_stays_silent(self):
        # storage/wal.py owns the canonical frame header: the struct ban
        # is scoped to the distributed wire modules only
        report = _lint(
            """\
            import struct

            _FRAME_HEADER = struct.Struct("<II")

            def frame(payload):
                return struct.pack("<II", len(payload), 0) + payload
            """,
            "storage/wal.py",
        )
        assert not _hits(report, "storage-codec")


# --------------------------------------------------------------------------- #
# table-mutation — PR 14's row locator needs every edit of Table.rows in table.py
# --------------------------------------------------------------------------- #
class TestTableMutation:
    def test_flags_the_parent_commits_restore_loop(self):
        # MaintenanceManager.delete at PR 13: a refused batch was put
        # back by appending behind Table's back (and out of order)
        report = _lint(
            """\
            def restore(table, removed):
                for row in removed:
                    table.rows.append(row)
            """,
            "maintenance/incremental.py",
        )
        hits = _hits(report, "table-mutation")
        assert len(hits) == 1
        assert hits[0].line == 3

    def test_flags_the_parent_commits_rollback_scan(self):
        report = _lint(
            """\
            def rollback(table, position):
                del table.rows[position]
            """,
            "maintenance/incremental.py",
        )
        hits = _hits(report, "table-mutation")
        assert len(hits) == 1
        assert hits[0].line == 2

    @pytest.mark.parametrize(
        "statement",
        [
            "table.rows.extend(batch)",
            "table.rows.insert(0, row)",
            "table.rows.pop()",
            "table.rows.remove(row)",
            "db.table('call').rows.clear()",
            "table.rows.sort()",
            "table.rows = list(batch)",
            "table.rows[0] = row",
            "table.rows += batch",
            "table.rows, n = batch, 0",
            "del table.rows[2:4]",
        ],
    )
    def test_flags_every_in_place_edit(self, statement):
        report = _lint(
            f"def load(db, table, batch, row):\n    {statement}\n",
            "storage/csvio.py",
        )
        hits = _hits(report, "table-mutation")
        assert len(hits) == 1, statement
        assert hits[0].line == 2

    def test_table_module_is_exempt(self):
        report = _lint(
            """\
            def insert(table, row):
                table.rows.append(row)
            """,
            "storage/table.py",
        )
        assert not _hits(report, "table-mutation")

    def test_reads_methods_and_own_attribute_are_silent(self):
        # the repaired spellings, plus what the rule must not mistake for
        # a table: a class filling its own ``self.rows``, a local list
        report = _lint(
            """\
            class Relation:
                def __init__(self, rows):
                    self.rows = rows
                    self.rows.append(())

            def load(schema, decoded, table, batch):
                fresh = Table.from_trusted_rows(schema, decoded)
                table.insert_rows(batch)
                tail = table.rows[-len(batch):]
                rows = list(table.rows)
                rows.append(tail)
                return fresh, len(table.rows), QueryResult(rows=table.rows)
            """,
            "bounded/optimizer.py",
        )
        assert not _hits(report, "table-mutation")


# --------------------------------------------------------------------------- #
# remote-dispatch — PR 17: one dispatcher ships plans to pool and fleet
# --------------------------------------------------------------------------- #
class TestRemoteDispatch:
    def test_flags_the_parent_commits_executor_ladder(self):
        # BoundedPlanExecutor.execute at PR 16: the executor itself tried
        # the fleet, then the pool, each with its own fallback
        report = _lint(
            """            def execute(self, plan):
                outcome = self._fleet.execute_plan(
                    plan, rows_per_batch=4
                )
                if outcome is None:
                    outcome = pool.execute_plan(key, payload_fn, plan)
                return outcome
            """,
            "bounded/executor.py",
        )
        hits = _hits(report, "remote-dispatch")
        assert [hit.line for hit in hits] == [2, 6]

    def test_flags_a_dispatch_from_the_serving_layer(self):
        report = _lint(
            "def execute(server, request):\n"
            "    return server.beas.fleet.execute_plan(request.plan)\n",
            "serving/request.py",
        )
        assert len(_hits(report, "remote-dispatch")) == 1

    def test_router_module_is_exempt(self):
        report = _lint(
            """            def _run_fleet(self, fleet, plan):
                return fleet.execute_plan(plan, rows_per_batch=4)
            """,
            "engine/router.py",
        )
        assert not _hits(report, "remote-dispatch")

    def test_definitions_and_the_runner_are_silent(self):
        # the peers define the method; everyone else calls the runner
        report = _lint(
            """            class EnginePool:
                def execute_plan(self, key, payload_fn, plan):
                    return None

            def evaluate(beas, route, plan):
                run = beas.runner.run_route
                return run(route, plan), beas.runner.execute_plan
            """,
            "engine/pool.py",
        )
        assert not _hits(report, "remote-dispatch")


# --------------------------------------------------------------------------- #
# suppression machinery
# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_trailing_marker_suppresses_own_line(self):
        report = _lint(
            """\
            def grab(self, shard):
                shard.lock.acquire_write()  # beaslint: ok(lock-discipline) - the only hold this thread takes, released in its finally
            """,
            "serving/server.py",
        )
        assert not report.findings
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "lock-discipline"

    def test_comment_line_marker_covers_next_line(self):
        report = _lint(
            """\
            def grab(self, shard):
                # beaslint: ok(lock-discipline) - the only hold this thread takes, released in its finally
                shard.lock.acquire_write()
            """,
            "serving/server.py",
        )
        assert not report.findings
        assert len(report.suppressed) == 1

    def test_marker_without_reason_is_itself_a_finding(self):
        report = _lint(
            """\
            def grab(self, shard):
                shard.lock.acquire_write()  # beaslint: ok(lock-discipline)
            """,
            "serving/server.py",
        )
        rules = {f.rule for f in report.findings}
        # the reasonless marker doesn't suppress, and is reported itself
        assert SUPPRESSION_RULE in rules
        assert "lock-discipline" in rules

    def test_marker_naming_unknown_rule_is_a_finding(self):
        report = _lint(
            """\
            x = 1  # beaslint: ok(no-such-rule) - because
            """,
            "engine/pool.py",
        )
        assert [f.rule for f in report.findings] == [SUPPRESSION_RULE]
        assert "no-such-rule" in report.findings[0].message

    def test_marker_for_a_different_rule_does_not_suppress(self):
        report = _lint(
            """\
            def grab(self, shard):
                shard.lock.acquire_write()  # beaslint: ok(env-access) - wrong rule
            """,
            "serving/server.py",
        )
        assert _hits(report, "lock-discipline")

    def test_marker_inside_string_literal_is_inert(self):
        report = _lint(
            '''\
            DOC = """
            suppress with  # beaslint: ok(rule-name) - reason
            """
            ''',
            "engine/pool.py",
        )
        assert not report.findings
        assert not report.suppressed


# --------------------------------------------------------------------------- #
# rule selection + whole-codebase gate
# --------------------------------------------------------------------------- #
class TestRunner:
    def test_rule_selection_runs_only_requested_rules(self):
        source = """\
            import os

            def bad(self, shard):
                shard.lock.acquire_write()
                return os.getenv("BEAS_EXECUTOR")
            """
        report = _lint(source, "serving/server.py", rules=["env-access"])
        assert {f.rule for f in report.findings} == {"env-access"}

    def test_unknown_rule_is_an_error(self):
        with pytest.raises(KeyError):
            _lint("x = 1", "engine/pool.py", rules=["no-such-rule"])

    def test_whole_codebase_is_clean(self):
        # the gate the CI lint job enforces: zero unsuppressed findings
        # across every module of the repro package
        report = run_lint()
        assert report.files_checked > 50
        assert report.clean, "\n" + "\n".join(f.render() for f in report.findings)

    def test_every_in_tree_suppression_is_justified_and_known(self):
        report = run_lint()
        known = set(all_checkers())
        for finding in report.suppressed:
            assert finding.rule in known


# --------------------------------------------------------------------------- #
# CLI entry point
# --------------------------------------------------------------------------- #
class TestCli:
    def test_lint_json_exit_zero_on_clean_tree(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert set(payload["rules"]) == set(all_checkers())

    def test_lint_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import os\nmode = os.getenv('BEAS_EXECUTOR')\n")
        from repro.cli import main

        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[env-access]" in out

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_checkers():
            assert rule in out
