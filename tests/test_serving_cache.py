"""The serving layer's caching contract.

Covers the three caches (parse, coverage-decision, result) and their
maintenance-aware invalidation: prepared queries are re-checked after
``register``/``unregister``; a result entry is dropped by an
``insert``/``delete`` that changes a bucket it fetched and retained
across every other write (``tests/test_result_invalidation.py`` holds
the model-based check of that contract); the LRU obeys its entry and
byte budgets in recency order.
"""

from __future__ import annotations

import pytest

from repro import BEAS, AccessConstraint
from repro.beas.result import ExecutionMode
from repro.errors import (
    BudgetExceededError,
    ServingError,
    UnknownParameterError,
)
from repro.serving import BEASServer, LRUCache
from repro.sql.fingerprint import statement_fingerprint

from tests.conftest import EXAMPLE2_SQL

CALL_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"

NEW_CALL = (900, "100", "990", "2016-06-01", "lagoon")


@pytest.fixture
def server(ex1_beas) -> BEASServer:
    return ex1_beas.session().server


@pytest.fixture
def local_server(ex1_db, ex1_access):
    """Plans run in-process whatever the CI leg: an answer computed on a
    pool worker or a replica comes back without a read set and goes with
    any write to its tables."""
    with BEAS(ex1_db, ex1_access, parallelism=1, replicas=1) as beas:
        yield beas.session().server


# --------------------------------------------------------------------------- #
# the LRU primitive
# --------------------------------------------------------------------------- #
class TestLRUCache:
    def test_entry_budget_evicts_least_recently_used(self):
        cache = LRUCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a': now 'b' is LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_enforced(self):
        cache = LRUCache("t", max_entries=100, max_bytes=100, sizeof=lambda v: v)
        cache.put("a", 40)
        cache.put("b", 40)
        cache.put("c", 40)  # 120 > 100: 'a' must go
        assert "a" not in cache
        assert cache.current_bytes == 80
        assert cache.stats.evictions == 1

    def test_oversized_value_refused_not_cached(self):
        cache = LRUCache("t", max_entries=4, max_bytes=100, sizeof=lambda v: v)
        cache.put("small", 10)
        assert not cache.put("big", 1000)
        assert "big" not in cache and "small" in cache

    def test_invalidations_counted_separately_from_evictions(self):
        cache = LRUCache("t", max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a")
        assert cache.invalidate_where(lambda k, v: v == 2) == 1
        assert cache.stats.invalidations == 2
        assert cache.stats.evictions == 0


# --------------------------------------------------------------------------- #
# result cache: a write drops what read the buckets it changed
# --------------------------------------------------------------------------- #
class TestResultCacheInvalidation:
    def test_repeat_is_served_from_cache(self, server):
        """Admission is admit-on-second-hit: the first sighting only
        registers the key, the second caches, the third is a hit."""
        cold = server.execute(CALL_SQL)
        admitted = server.execute(CALL_SQL)
        warm = server.execute(CALL_SQL)
        assert not cold.metrics.served_from_cache
        assert not admitted.metrics.served_from_cache
        assert warm.metrics.served_from_cache
        assert warm.rows == cold.rows and warm.columns == cold.columns
        assert warm.mode is cold.mode
        # the cache-hit path must report its real serve latency, never 0.0
        assert warm.metrics.seconds > 0

    def test_insert_evicts_only_the_touched_table(self, server):
        for _ in range(2):  # second sighting admits each entry
            server.execute(CALL_SQL)
            server.execute(PACKAGE_SQL)
        server.insert("call", [NEW_CALL])
        after_call = server.execute(CALL_SQL)
        after_package = server.execute(PACKAGE_SQL)
        assert not after_call.metrics.served_from_cache
        assert ("990", "lagoon") in after_call.rows
        assert after_package.metrics.served_from_cache
        assert server.stats().result.invalidations == 1

    def test_delete_drops_an_answer_when_a_fetched_bucket_loses_a_value(
        self, local_server
    ):
        server = local_server
        before = server.execute(CALL_SQL)
        server.execute(CALL_SQL)
        server.execute(PACKAGE_SQL)
        server.execute(PACKAGE_SQL)
        # calls 1 and 7 both project to ('555', 'north'): deleting one
        # leaves the bucket's distinct Y-values, and the answer, alone
        server.delete("call", [(1, "100", "555", "2016-06-01", "north")])
        kept = server.execute(CALL_SQL)
        assert kept.metrics.served_from_cache
        assert kept.rows == server.execute(CALL_SQL, use_result_cache=False).rows
        # the last supporting row takes the Y-value with it
        server.delete("call", [(7, "100", "555", "2016-06-01", "north")])
        after = server.execute(CALL_SQL)
        assert not after.metrics.served_from_cache
        assert set(after.rows) < set(before.rows)
        assert server.execute(PACKAGE_SQL).metrics.served_from_cache

    def test_join_result_depends_on_every_bucket_it_fetched(self, local_server):
        server = local_server
        server.execute(EXAMPLE2_SQL)
        server.execute(EXAMPLE2_SQL)
        assert server.execute(EXAMPLE2_SQL).metrics.served_from_cache
        # pnum 104 is no bank in the east: the join never fetched its bucket
        server.insert("package", [(90, "104", "c9", "2016-01-01", "2016-12-31", 2016)])
        kept = server.execute(EXAMPLE2_SQL)
        assert kept.metrics.served_from_cache
        assert kept.rows == server.execute(EXAMPLE2_SQL, use_result_cache=False).rows
        # pnum 101 is one: a new package of its 2016 bucket changes what
        # the join's package fetch returned
        server.insert("package", [(91, "101", "c9", "2016-01-01", "2016-12-31", 2016)])
        assert not server.execute(EXAMPLE2_SQL).metrics.served_from_cache

    def test_mutation_outside_the_server_is_still_seen(self, server):
        """Table.version bumps on any mutation path, not just server.insert."""
        server.execute(CALL_SQL)
        server.execute(CALL_SQL)  # admitted
        server.beas.insert("call", [NEW_CALL])  # around the serving layer
        result = server.execute(CALL_SQL)
        assert not result.metrics.served_from_cache
        assert ("990", "lagoon") in result.rows

    def test_cached_rows_are_isolated_from_caller_mutation(self, server):
        server.execute(CALL_SQL)
        admitted = server.execute(CALL_SQL)
        admitted.rows.append(("corrupted", "row"))
        cached = server.execute(CALL_SQL)
        assert cached.metrics.served_from_cache
        assert ("corrupted", "row") not in cached.rows
        cached.rows.append(("corrupted", "row"))
        assert ("corrupted", "row") not in server.execute(CALL_SQL).rows


# --------------------------------------------------------------------------- #
# decision cache: access-schema generation
# --------------------------------------------------------------------------- #
class TestDecisionInvalidation:
    def test_unregister_forces_recheck(self, server):
        prepared = server.prepare(CALL_SQL)
        assert prepared.check().covered
        server.unregister("psi1")
        decision = prepared.check()
        assert not decision.covered
        result = prepared.execute()
        assert result.mode is not ExecutionMode.BOUNDED

    def test_register_forces_recheck(self, ex1_db):
        beas = BEAS(ex1_db)  # empty access schema
        server = beas.session().server
        prepared = server.prepare(CALL_SQL)
        assert not prepared.check().covered
        server.register(
            AccessConstraint("call", ["pnum", "date"], ["recnum", "region"], 500,
                             name="psi1")
        )
        decision = prepared.check()
        assert decision.covered
        assert prepared.execute().mode is ExecutionMode.BOUNDED

    def test_schema_change_flushes_results_too(self, server):
        server.execute(CALL_SQL)
        server.unregister("psi2")  # unrelated constraint, same generation clock
        assert not server.execute(CALL_SQL).metrics.served_from_cache

    def test_decision_cache_hit_skips_checker(self, server):
        server.execute(CALL_SQL)
        server.execute(CALL_SQL, use_result_cache=False)
        stats = server.stats()
        assert stats.decision.hits >= 1

    def test_drift_monitor_apply_bumps_generation(self, server):
        """The monitor's bound adjustments must invalidate pinned
        decisions just like MaintenanceManager's ADJUST path does."""
        from repro.maintenance.monitor import DriftMonitor

        stale = server.check(CALL_SQL)  # pins access_bound = 500 (psi1's N)
        changed = DriftMonitor(server.beas.catalog).apply()
        assert "psi1" in changed  # declared 500 vs tiny observed max
        fresh = server.check(CALL_SQL)
        assert fresh.covered
        assert fresh.access_bound < stale.access_bound

    def test_adjusted_bound_bumps_generation(self, server):
        generation = server.stats().schema_generation
        rows = [
            (800 + i, "100", f"r{i}", "2016-07-01", "east") for i in range(3)
        ]
        server.insert("call", rows, adjust_bounds=True)
        # REJECT would have accepted this batch too, so no adjustment is
        # guaranteed; widen psi2 instead (12 packages for one (pnum, year))
        pkgs = [
            (200 + i, "105", f"c{i}", "2016-01-01", "2016-12-31", 2016)
            for i in range(13)
        ]
        server.insert("package", pkgs, adjust_bounds=True)
        assert server.stats().schema_generation > generation


# --------------------------------------------------------------------------- #
# prepared queries and parameter slots
# --------------------------------------------------------------------------- #
class TestPreparedQueries:
    def test_slots_extracted(self, server):
        prepared = server.prepare(EXAMPLE2_SQL)
        assert "call.date" in prepared.slots
        assert "business.type" in prepared.slots
        # range predicates are not slots
        assert all("start" not in name for name in prepared.slots)

    def test_binding_changes_the_answer(self, server, ex1_beas):
        prepared = server.prepare(CALL_SQL)
        default = prepared.execute()
        rebound = prepared.execute({"call.date": "2016-06-02"})
        fresh = ex1_beas.session().run(
            CALL_SQL.replace("2016-06-01", "2016-06-02")
        )
        assert set(rebound.rows) == set(fresh.rows)
        assert set(rebound.rows) != set(default.rows)

    def test_unqualified_and_in_list_bindings(self, server):
        prepared = server.prepare(CALL_SQL)
        rebound = prepared.execute({"pnum": ["100", "101"]})
        expected = server.execute(
            "SELECT DISTINCT recnum, region FROM call "
            "WHERE pnum IN ('100', '101') AND date = '2016-06-01'"
        )
        assert set(rebound.rows) == set(expected.rows)

    def test_rebound_execution_is_cached_per_binding(self, server):
        prepared = server.prepare(CALL_SQL)
        prepared.execute({"call.date": "2016-06-02"})
        prepared.execute({"call.date": "2016-06-02"})  # admitted
        again = prepared.execute({"call.date": "2016-06-02"})
        assert again.metrics.served_from_cache

    def test_unknown_parameter_rejected(self, server):
        prepared = server.prepare(CALL_SQL)
        with pytest.raises(UnknownParameterError):
            prepared.execute({"call.nosuch": "x"})

    def test_null_parameter_rejected(self, server):
        prepared = server.prepare(CALL_SQL)
        with pytest.raises(ServingError):
            prepared.execute({"call.date": None})

    def test_prepare_same_text_returns_same_handle(self, server):
        first = server.prepare(CALL_SQL, name="q")
        second = server.prepare(CALL_SQL)
        assert first is second
        assert server.prepared("q") is first

    def test_prepare_name_conflict_rejected(self, server):
        server.prepare(CALL_SQL, name="q")
        with pytest.raises(ServingError):
            server.prepare(PACKAGE_SQL, name="q")

    def test_fingerprint_ignores_presentation_order(self, server):
        reordered = (
            "select distinct recnum, region from call "
            "where date = '2016-06-01' and pnum = '100'"
        )
        server.execute(CALL_SQL)
        server.execute(CALL_SQL)  # admitted
        assert server.execute(reordered).metrics.served_from_cache
        assert statement_fingerprint(CALL_SQL) == statement_fingerprint(reordered)


# --------------------------------------------------------------------------- #
# budgets and modes through the serving layer
# --------------------------------------------------------------------------- #
class TestServingBudgets:
    def test_budget_exceeded_raises_and_is_not_cached(self, server):
        with pytest.raises(BudgetExceededError):
            server.execute(CALL_SQL, budget=1)
        ok = server.execute(CALL_SQL, budget=10_000)
        assert ok.mode is ExecutionMode.BOUNDED
        assert ok.decision.within_budget

    def test_approximate_results_are_not_cached(self, server):
        first = server.execute(CALL_SQL, budget=1, approximate_over_budget=True)
        second = server.execute(CALL_SQL, budget=1, approximate_over_budget=True)
        assert first.mode is ExecutionMode.APPROXIMATE
        assert second.mode is ExecutionMode.APPROXIMATE
        assert not second.metrics.served_from_cache

    def test_evaluate_budgets_an_unbudgeted_decision(self, ex1_beas):
        """A pinned decision carries within_budget=None; under a budget
        the engine entry must derive feasibility from the access bound,
        not treat None as over-budget."""
        decision = ex1_beas.check(CALL_SQL)
        assert decision.covered and decision.within_budget is None
        options = ex1_beas.session().options
        mode, _ = ex1_beas.evaluate(
            CALL_SQL, decision, options.replace(budget=10_000)
        )
        assert mode is ExecutionMode.BOUNDED
        with pytest.raises(BudgetExceededError):
            ex1_beas.evaluate(CALL_SQL, decision, options.replace(budget=1))

    def test_metrics_expose_cache_counters(self, server):
        server.execute(CALL_SQL)
        server.execute(CALL_SQL)  # admitted on the second sighting
        warm = server.execute(CALL_SQL)
        assert warm.metrics.cache_hits >= 2  # parse + result
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.table_versions  # the observed snapshot vector
        stats = server.stats()
        assert stats.executions == 3
        assert stats.result.hits == 1
        assert stats.admission_declines == 1

    def test_stats_describe_mentions_every_cache(self, server):
        server.execute(CALL_SQL)
        text = server.stats().describe()
        for label in ("parse:", "decision:", "result:", "prepared queries"):
            assert label in text
