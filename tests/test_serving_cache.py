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

import threading

import pytest

from repro import BEAS, AccessConstraint, Decision, Session
from repro.beas.result import ExecutionMode
from repro.errors import (
    BudgetExceededError,
    ServingError,
    UnknownParameterError,
)
from repro.maintenance.incremental import MaintenanceManager
from repro.serving import LRUCache
from repro.serving.shard import grant, release
from repro.sql.fingerprint import statement_fingerprint

from tests.conftest import EXAMPLE2_SQL

CALL_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"

NEW_CALL = (900, "100", "990", "2016-06-01", "lagoon")


@pytest.fixture
def session(ex1_beas) -> Session:
    return ex1_beas.session()


@pytest.fixture
def local_session(ex1_db, ex1_access):
    """Plans run in-process whatever the CI leg: an answer computed on a
    pool worker or a replica comes back without a read set and goes with
    any write to its tables."""
    with BEAS(ex1_db, ex1_access, parallelism=1, replicas=1) as beas:
        yield beas.session()


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
    def test_repeat_is_served_from_cache(self, session):
        """Admission is admit-on-second-hit: the first sighting only
        registers the key, the second caches, the third is a hit."""
        cold = session.run(CALL_SQL)
        admitted = session.run(CALL_SQL)
        warm = session.run(CALL_SQL)
        assert not cold.metrics.served_from_cache
        assert not admitted.metrics.served_from_cache
        assert warm.metrics.served_from_cache
        assert warm.rows == cold.rows and warm.columns == cold.columns
        assert warm.mode is cold.mode
        # the cache-hit path must report its real serve latency, never 0.0
        assert warm.metrics.seconds > 0

    def test_insert_evicts_only_the_touched_table(self, session):
        for _ in range(2):  # second sighting admits each entry
            session.run(CALL_SQL)
            session.run(PACKAGE_SQL)
        session.insert("call", [NEW_CALL])
        after_call = session.run(CALL_SQL)
        after_package = session.run(PACKAGE_SQL)
        assert not after_call.metrics.served_from_cache
        assert ("990", "lagoon") in after_call.rows
        assert after_package.metrics.served_from_cache
        assert session.stats().result.invalidations == 1

    def test_delete_drops_an_answer_when_a_fetched_bucket_loses_a_value(
        self, local_session
    ):
        session = local_session
        before = session.run(CALL_SQL)
        session.run(CALL_SQL)
        session.run(PACKAGE_SQL)
        session.run(PACKAGE_SQL)
        # calls 1 and 7 both project to ('555', 'north'): deleting one
        # leaves the bucket's distinct Y-values, and the answer, alone
        session.delete("call", [(1, "100", "555", "2016-06-01", "north")])
        kept = session.run(CALL_SQL)
        assert kept.metrics.served_from_cache
        assert kept.rows == session.run(CALL_SQL, use_result_cache=False).rows
        # the last supporting row takes the Y-value with it
        session.delete("call", [(7, "100", "555", "2016-06-01", "north")])
        after = session.run(CALL_SQL)
        assert not after.metrics.served_from_cache
        assert set(after.rows) < set(before.rows)
        assert session.run(PACKAGE_SQL).metrics.served_from_cache

    def test_join_result_depends_on_every_bucket_it_fetched(self, local_session):
        session = local_session
        session.run(EXAMPLE2_SQL)
        session.run(EXAMPLE2_SQL)
        assert session.run(EXAMPLE2_SQL).metrics.served_from_cache
        # pnum 104 is no bank in the east: the join never fetched its bucket
        session.insert("package", [(90, "104", "c9", "2016-01-01", "2016-12-31", 2016)])
        kept = session.run(EXAMPLE2_SQL)
        assert kept.metrics.served_from_cache
        assert kept.rows == session.run(EXAMPLE2_SQL, use_result_cache=False).rows
        # pnum 101 is one: a new package of its 2016 bucket changes what
        # the join's package fetch returned
        session.insert("package", [(91, "101", "c9", "2016-01-01", "2016-12-31", 2016)])
        assert not session.run(EXAMPLE2_SQL).metrics.served_from_cache

    def test_mutation_outside_the_server_is_still_seen(self, session):
        """Table.version bumps on any mutation path, not just session.insert."""
        session.run(CALL_SQL)
        session.run(CALL_SQL)  # admitted
        MaintenanceManager(session.beas.catalog).insert("call", [NEW_CALL])
        result = session.run(CALL_SQL)
        assert not result.metrics.served_from_cache
        assert ("990", "lagoon") in result.rows

    def test_cached_rows_are_isolated_from_caller_mutation(self, session):
        session.run(CALL_SQL)
        admitted = session.run(CALL_SQL)
        admitted.rows.append(("corrupted", "row"))
        cached = session.run(CALL_SQL)
        assert cached.metrics.served_from_cache
        assert ("corrupted", "row") not in cached.rows
        cached.rows.append(("corrupted", "row"))
        assert ("corrupted", "row") not in session.run(CALL_SQL).rows


class TestOneWritePath:
    """``BEAS.insert`` / ``delete`` are the only writes above the catalog:
    a write made through the engine takes its holds and invalidates
    exactly, as one made through a Session does."""

    def test_a_bucket_preserving_engine_insert_keeps_the_answers(self, local_session):
        session = local_session
        other_day = CALL_SQL.replace("2016-06-01", "2016-06-02")
        for sql in (CALL_SQL, other_day) * 2:
            session.run(sql)  # each admitted on its second sighting
        # a copy of a stored row under a fresh id: no psi1 bucket changes
        session.beas.insert("call", [(901, "100", "555", "2016-06-01", "north")])
        assert session.run(CALL_SQL).metrics.served_from_cache
        assert session.run(other_day).metrics.served_from_cache
        stats = session.stats()
        assert stats.invalidated_sweep == 0
        assert stats.result.invalidations == 0

    def test_an_engine_insert_waits_for_a_read_grant(self, session):
        engine = session.beas
        version = engine.database.table("call").version
        held = engine.read_locks(frozenset({"call"}))
        grant(held)
        writer = threading.Thread(target=engine.insert, args=("call", [NEW_CALL]))
        try:
            writer.start()
            writer.join(0.2)
            assert writer.is_alive()
            assert engine.database.table("call").version == version
        finally:
            release(held)
        writer.join(10)
        assert not writer.is_alive()
        assert engine.database.table("call").version > version
        call = engine.stats().shards["call"]
        assert call.lock.contended_acquisitions == 1
        assert call.lock.write_acquisitions == 1


# --------------------------------------------------------------------------- #
# decision cache: access-schema generation
# --------------------------------------------------------------------------- #
class TestDecisionInvalidation:
    def test_unregister_forces_recheck(self, session):
        prepared = session.query(CALL_SQL)
        assert prepared.decide().covered
        session.unregister("psi1")
        decision = prepared.decide()
        assert not decision.covered
        result = prepared.run()
        assert result.mode is not ExecutionMode.BOUNDED

    def test_register_forces_recheck(self, ex1_db):
        beas = BEAS(ex1_db)  # empty access schema
        session = beas.session()
        prepared = session.query(CALL_SQL)
        assert not prepared.decide().covered
        session.register(
            AccessConstraint("call", ["pnum", "date"], ["recnum", "region"], 500,
                             name="psi1")
        )
        decision = prepared.decide()
        assert decision.covered
        assert prepared.run().mode is ExecutionMode.BOUNDED

    def test_schema_change_flushes_results_too(self, session):
        session.run(CALL_SQL)
        session.unregister("psi2")  # unrelated constraint, same generation clock
        assert not session.run(CALL_SQL).metrics.served_from_cache

    def test_decision_cache_hit_skips_checker(self, session):
        session.run(CALL_SQL)
        session.run(CALL_SQL, use_result_cache=False)
        stats = session.stats()
        assert stats.decision.hits >= 1

    def test_drift_monitor_apply_bumps_generation(self, session):
        """The monitor's bound adjustments must invalidate pinned
        decisions just like MaintenanceManager's ADJUST path does."""
        from repro.maintenance.monitor import DriftMonitor

        stale = session.query(CALL_SQL).decide()  # pins access_bound = 500 (psi1's N)
        changed = DriftMonitor(session.beas.catalog).apply()
        assert "psi1" in changed  # declared 500 vs tiny observed max
        fresh = session.query(CALL_SQL).decide()
        assert fresh.covered
        assert fresh.access_bound < stale.access_bound

    def test_adjusted_bound_bumps_generation(self, session):
        generation = session.stats().schema_generation
        rows = [
            (800 + i, "100", f"r{i}", "2016-07-01", "east") for i in range(3)
        ]
        session.insert("call", rows, adjust_bounds=True)
        # REJECT would have accepted this batch too, so no adjustment is
        # guaranteed; widen psi2 instead (12 packages for one (pnum, year))
        pkgs = [
            (200 + i, "105", f"c{i}", "2016-01-01", "2016-12-31", 2016)
            for i in range(13)
        ]
        session.insert("package", pkgs, adjust_bounds=True)
        assert session.stats().schema_generation > generation


# --------------------------------------------------------------------------- #
# prepared queries and parameter slots
# --------------------------------------------------------------------------- #
class TestPreparedQueries:
    def test_slots_extracted(self, session):
        prepared = session.query(EXAMPLE2_SQL)
        assert "call.date" in prepared.slots
        assert "business.type" in prepared.slots
        # range predicates are not slots
        assert all("start" not in name for name in prepared.slots)

    def test_binding_changes_the_answer(self, session, ex1_beas):
        prepared = session.query(CALL_SQL)
        default = prepared.run()
        rebound = prepared.bind({"call.date": "2016-06-02"}).run()
        fresh = ex1_beas.session().run(
            CALL_SQL.replace("2016-06-01", "2016-06-02")
        )
        assert set(rebound.rows) == set(fresh.rows)
        assert set(rebound.rows) != set(default.rows)

    def test_unqualified_and_in_list_bindings(self, session):
        prepared = session.query(CALL_SQL)
        rebound = prepared.bind({"pnum": ["100", "101"]}).run()
        expected = session.run(
            "SELECT DISTINCT recnum, region FROM call "
            "WHERE pnum IN ('100', '101') AND date = '2016-06-01'"
        )
        assert set(rebound.rows) == set(expected.rows)

    def test_rebound_execution_is_cached_per_binding(self, session):
        prepared = session.query(CALL_SQL)
        prepared.bind({"call.date": "2016-06-02"}).run()
        prepared.bind({"call.date": "2016-06-02"}).run()  # admitted
        again = prepared.bind({"call.date": "2016-06-02"}).run()
        assert again.metrics.served_from_cache

    def test_unknown_parameter_rejected(self, session):
        prepared = session.query(CALL_SQL)
        with pytest.raises(UnknownParameterError):
            prepared.bind({"call.nosuch": "x"}).run()

    def test_null_parameter_rejected(self, session):
        prepared = session.query(CALL_SQL)
        with pytest.raises(ServingError):
            prepared.bind({"call.date": None}).run()

    def test_prepare_same_text_returns_same_handle(self, session):
        engine = session.beas
        first = engine.prepare(CALL_SQL, name="q")
        second = engine.prepare(CALL_SQL)
        assert first is second
        assert engine.prepared("q") is first

    def test_prepare_name_conflict_rejected(self, session):
        session.query(CALL_SQL, name="q")
        with pytest.raises(ServingError):
            session.query(PACKAGE_SQL, name="q")

    def test_fingerprint_ignores_presentation_order(self, session):
        reordered = (
            "select distinct recnum, region from call "
            "where date = '2016-06-01' and pnum = '100'"
        )
        session.run(CALL_SQL)
        session.run(CALL_SQL)  # admitted
        assert session.run(reordered).metrics.served_from_cache
        assert statement_fingerprint(CALL_SQL) == statement_fingerprint(reordered)


# --------------------------------------------------------------------------- #
# budgets and modes through the serving layer
# --------------------------------------------------------------------------- #
class TestServingBudgets:
    def test_budget_exceeded_raises_and_is_not_cached(self, session):
        with pytest.raises(BudgetExceededError):
            session.run(CALL_SQL, budget=1)
        ok = session.run(CALL_SQL, budget=10_000)
        assert ok.mode is ExecutionMode.BOUNDED
        assert ok.decision.within_budget

    def test_approximate_results_are_not_cached(self, session):
        first = session.run(CALL_SQL, budget=1, approximate_over_budget=True)
        second = session.run(CALL_SQL, budget=1, approximate_over_budget=True)
        assert first.mode is ExecutionMode.APPROXIMATE
        assert second.mode is ExecutionMode.APPROXIMATE
        assert not second.metrics.served_from_cache

    def test_evaluate_budgets_an_unbudgeted_decision(self, ex1_beas):
        """A pinned decision carries within_budget=None; under a budget
        the request's Decision derives feasibility from the access bound,
        not treat None as over-budget."""
        decision = ex1_beas.check(CALL_SQL)
        assert decision.covered and decision.within_budget is None
        options = ex1_beas.session().options
        mode, _ = ex1_beas.evaluate(
            CALL_SQL,
            Decision(decision, "fresh", 0, budget=10_000),
            options.replace(budget=10_000),
        )
        assert mode is ExecutionMode.BOUNDED
        with pytest.raises(BudgetExceededError):
            ex1_beas.evaluate(
                CALL_SQL,
                Decision(decision, "fresh", 0, budget=1),
                options.replace(budget=1),
            )

    def test_metrics_expose_cache_counters(self, session):
        session.run(CALL_SQL)
        session.run(CALL_SQL)  # admitted on the second sighting
        warm = session.run(CALL_SQL)
        assert warm.metrics.cache_hits >= 2  # parse + result
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.table_versions  # the observed snapshot vector
        stats = session.stats()
        assert stats.executions == 3
        assert stats.result.hits == 1
        assert stats.admission_declines == 1

    def test_stats_describe_mentions_every_cache(self, session):
        session.run(CALL_SQL)
        text = session.stats().describe()
        for label in ("parse:", "decision:", "result:", "prepared queries"):
            assert label in text
