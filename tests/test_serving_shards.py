"""Sharding primitives + the invalidation property.

The load-bearing test here is the **invalidation property**: after any
random mutation sequence through the serving layer,

* whatever the result cache serves equals a fresh execution (no stale
  entry survives), and
* every entry whose dependency tables were untouched by a mutation is
  still cached (no fresh entry is needlessly dropped).

(``tests/test_result_invalidation.py`` checks the finer half of the
contract — which answers on the *written* table survive.)

Plus focused coverage of the pieces: the reader/writer lock, the
striped cache, the one-critical-section grant of a request's holds and
the admission policy.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import BEAS, AccessConstraint, Session
from repro.errors import MaintenanceError
from repro.serving import ShardLock, StripedCache
from repro.serving import server as serving_server
from repro.serving.shard import grant, release

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)

CALL_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"
BUSINESS_SQL = (
    "SELECT business.pnum FROM business WHERE business.type = 'bank' "
    "AND business.region = 'east'"
)


@pytest.fixture
def session():
    with BEAS(example1_database(), example1_access_schema()) as beas:
        yield beas.session()


class Interrupted(BaseException):
    """What a ``KeyboardInterrupt`` out of a lock wait stands for."""


def _interrupt_next_wait(cond: threading.Condition) -> None:
    """Make the next ``cond.wait()`` raise :class:`Interrupted`."""

    def interrupted(*args, **kwargs):
        del cond.wait  # later waits are the real ones again
        raise Interrupted

    cond.wait = interrupted


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def _in_thread(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


# --------------------------------------------------------------------------- #
# the reader/writer lock
# --------------------------------------------------------------------------- #
class TestShardLock:
    def test_readers_are_concurrent(self):
        lock = ShardLock("t")
        inside = threading.Barrier(3, timeout=10)

        def read() -> None:
            with lock.read():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not t.is_alive() for t in threads)
        assert lock.stats.read_acquisitions == 3

    def test_writer_excludes_readers_and_is_counted(self):
        lock = ShardLock("t")
        order: list[str] = []
        lock.acquire_write()

        def read() -> None:
            with lock.read():
                order.append("reader")

        thread = threading.Thread(target=read)
        thread.start()
        time.sleep(0.05)
        order.append("writer-release")
        lock.release_write()
        thread.join(timeout=10)
        assert order == ["writer-release", "reader"]
        assert lock.stats.contended_acquisitions == 1
        assert lock.stats.read_wait_seconds > 0

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a steady read stream cannot starve writes."""
        lock = ShardLock("t")
        lock.acquire_read()
        got_write = threading.Event()
        got_second_read = threading.Event()

        writer = threading.Thread(
            target=lambda: (lock.acquire_write(), got_write.set(),
                            lock.release_write()),
        )
        writer.start()
        time.sleep(0.05)  # writer is now queued
        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), got_second_read.set(),
                            lock.release_read()),
        )
        reader.start()
        time.sleep(0.05)
        assert not got_second_read.is_set()  # parked behind the writer
        lock.release_read()
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert got_write.is_set() and got_second_read.is_set()

    def test_interrupted_writer_wait_does_not_wedge_the_lock(self):
        """A writer whose wait raises takes back its registration, so
        writer preference does not park every later reader for good."""
        lock = ShardLock("t")
        lock.acquire_read()  # the writer has to wait
        _interrupt_next_wait(lock._cond)
        with pytest.raises(Interrupted):
            lock.acquire_write()
        lock.release_read()
        got_read = threading.Event()
        reader = _in_thread(lambda: (lock.acquire_read(), got_read.set()))
        reader.join(timeout=10)
        assert got_read.is_set()
        assert lock._waiting_writers == 0


class TestStripedCache:
    def test_round_trip_and_aggregated_stats(self):
        cache = StripedCache("d", max_entries=64, stripes=4)
        for i in range(20):
            cache.put(f"k{i}", i)
        assert cache.get("k3") == 3
        assert cache.get("nope") is None
        stats = cache.stats()
        assert stats.name == "d"
        assert stats.hits == 1 and stats.misses == 1
        assert len(cache) == 20
        assert cache.invalidate_all() == 20

    def test_single_stripe_degrades_cleanly(self):
        cache = StripedCache("d", max_entries=2, stripes=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2  # LRU budget enforced
        assert cache.stats().evictions == 1

    def test_stripes_must_be_positive(self):
        with pytest.raises(ValueError):
            StripedCache("d", max_entries=8, stripes=0)


# --------------------------------------------------------------------------- #
# the grant: a request's holds, taken together in one critical section
# --------------------------------------------------------------------------- #
class TestGrant:
    def test_parked_reader_holds_nothing_on_its_other_tables(self, session):
        """A join parked behind a writer on one of its tables holds no
        read on the others: a writer on those completes meanwhile."""
        package = session.beas.shard("package").lock
        package.acquire_write()
        served = []
        try:
            reader = _in_thread(lambda: served.append(session.run(EXAMPLE2_SQL)))
            _wait_until(lambda: package.stats.contended_acquisitions == 1)
            writer = _in_thread(lambda: session.insert("call", MUTATIONS["call"](0)))
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert reader.is_alive() and not served
        finally:
            package.release_write()
        reader.join(timeout=10)
        assert served
        versions = served[0].metrics.table_versions
        assert versions["call"] == session.database.table("call").version

    def test_interrupted_join_leaks_no_hold(self, session):
        """A join interrupted while parked behind a writer on one table
        leaves no read hold on the schema or its other tables."""
        package = session.beas.shard("package").lock
        package.acquire_write()
        _interrupt_next_wait(package._cond)
        try:
            with pytest.raises(Interrupted):
                session.run(EXAMPLE2_SQL)
        finally:
            package.release_write()
        for name in ("call", "business"):
            assert session.beas.shard(name).lock._readers == 0
        assert session.beas._schema_lock._readers == 0
        writer = _in_thread(lambda: session.insert("call", MUTATIONS["call"](0)))
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_writer_preference_is_per_lock(self):
        """Through the shared condition, a waiting writer on ``a`` parks
        new readers of ``a`` only; a reader of ``b`` alone never waits."""
        cond = threading.Condition(threading.Lock())
        a, b = ShardLock("a", cond), ShardLock("b", cond)
        grant((a,))
        wrote, read = threading.Event(), threading.Event()
        writer = _in_thread(
            lambda: (grant((), a), wrote.set(), release((), a))
        )
        _wait_until(lambda: a._waiting_writers == 1)
        reader = _in_thread(
            lambda: (grant((a, b)), read.set(), release((a, b)))
        )
        _wait_until(lambda: a.stats.contended_acquisitions == 2)
        assert grant((b,)) == 0.0
        release((b,))
        assert not wrote.is_set() and not read.is_set()
        release((a,))
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert wrote.is_set() and read.is_set()
        assert b.stats.contended_acquisitions == 0
        assert a.stats.write_wait_seconds > 0 and a.stats.read_wait_seconds > 0
        assert (a._readers, a._writer, b._readers) == (0, None, 0)

    def test_register_waits_for_reads_in_flight_and_blocks_new_ones(self, session):
        in_flight = session.beas.read_locks(frozenset({"call"}))
        grant(in_flight)
        schema = session.beas._schema_lock
        constraint = AccessConstraint("business", ["pnum"], ["type"], 4, name="psi4")
        registered = threading.Event()
        served = []
        try:
            register = _in_thread(
                lambda: (session.register(constraint), registered.set())
            )
            _wait_until(lambda: schema._waiting_writers == 1)
            reader = _in_thread(lambda: served.append(session.run(CALL_SQL)))
            _wait_until(lambda: schema.stats.contended_acquisitions == 2)
            assert not registered.is_set() and not served
        finally:
            release(in_flight)
        register.join(timeout=10)
        reader.join(timeout=10)
        assert registered.is_set() and served
        # the read parked behind the register observed its generation
        assert served[0].decision.generation == session.beas.catalog.schema_generation


def test_grant_stress_answers_match_their_versions():
    """Readers over random table subsets, writers on two tables and one
    register: no thread deadlocks (every join is bounded), and every
    answer equals a fresh evaluation at the table versions it reports."""
    readers, reads, pairs = 4, 50, 12
    answers: list[tuple[str, dict[str, int], list]] = []
    start = threading.Barrier(readers + 3, timeout=10)
    finished: list[str] = []
    # table -> version -> the written rows present at it
    states: dict[str, dict[int, tuple]] = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BEAS(example1_database(), example1_access_schema()) as beas:
            session = beas.session()
            for table in ("call", "package"):
                states[table] = {session.database.table(table).version: ()}

            def read(seed: int) -> None:
                rng = random.Random(seed)
                start.wait()
                done = 0
                # at least ``reads``, and on until both writers finish
                while done < reads or writers_left():
                    sql, _ = rng.choice(QUERY_POOL)
                    result = session.run(sql)
                    answers.append((sql, result.metrics.table_versions, result.rows))
                    done += 1

            def writers_left() -> bool:
                return len(finished) < len(states)

            def write(table: str) -> None:
                # the one writer of its table: the version after each
                # batch is the batch's own
                start.wait()
                try:
                    for i in range(pairs):
                        rows = MUTATIONS[table](i)
                        for apply, present in ((session.insert, tuple(rows)), (session.delete, ())):
                            apply(table, rows)
                            states[table][session.database.table(table).version] = present
                            time.sleep(0.001)  # let reads in between
                finally:
                    finished.append(table)

            def register() -> None:
                start.wait()
                time.sleep(0.005)
                session.register(constraint)

            constraint = AccessConstraint("business", ["pnum"], ["type"], 4, name="psi4")
            generation = beas.catalog.schema_generation
            threads = [_in_thread(lambda s=s: read(s)) for s in range(readers)]
            threads += [_in_thread(lambda t=t: write(t)) for t in states]
            threads.append(_in_thread(register))
            deadline = time.monotonic() + 10
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), "deadlock canary"
            assert beas.catalog.schema_generation > generation
    finally:
        sys.setswitchinterval(switch)
    assert len(answers) >= readers * reads

    # the reference: one engine moved to each observed state in turn
    with BEAS(example1_database(), example1_access_schema()) as beas:
        reference = beas.session()
        present: dict[str, tuple] = {table: () for table in states}
        expected: dict[tuple, list] = {}
        for sql, versions, rows in answers:
            # a version no batch left behind (a torn read) is a KeyError
            want = tuple(
                (table, states[table][versions[table]])
                for table in sorted(versions)
                if table in states
            )
            if (sql, want) not in expected:
                for table, rows_at in want:
                    if present[table] != rows_at:
                        if present[table]:
                            reference.delete(table, list(present[table]))
                        if rows_at:
                            reference.insert(table, list(rows_at))
                        present[table] = rows_at
                expected[sql, want] = sorted(
                    reference.run(sql, use_result_cache=False).rows
                )
            assert sorted(rows) == expected[sql, want], (sql, versions)


# --------------------------------------------------------------------------- #
# admission policy: admit-on-second-hit
# --------------------------------------------------------------------------- #
class TestAdmissionPolicy:
    def test_once_seen_is_not_cached_twice_seen_is(self, session):
        session.run(CALL_SQL)
        stats = session.stats()
        assert stats.result_entries == 0  # one-off: doorkeeper only
        assert stats.admission_declines == 1

        session.run(CALL_SQL)
        stats = session.stats()
        assert stats.result_entries == 1  # second sighting admits
        assert session.run(CALL_SQL).metrics.served_from_cache

    def test_one_off_queries_do_not_churn_the_lru(self, monkeypatch):
        """A scan of distinct one-off queries must not evict the hot
        entry — the ROADMAP's cache-churn complaint."""
        # about eight answers of ~2.3 KB
        monkeypatch.setattr(serving_server, "RESULT_CACHE_BYTES", 8 * 2500)
        session = BEAS(example1_database(), example1_access_schema()).session()
        session.run(CALL_SQL)
        session.run(CALL_SQL)  # admitted
        assert session.run(CALL_SQL).metrics.served_from_cache

        for day in range(2, 28):  # 26 distinct one-offs through one shard
            session.run(CALL_SQL.replace("2016-06-01", f"2016-06-{day:02d}"))
        stats = session.stats()
        assert stats.result.evictions == 0
        assert stats.admission_declines >= 26
        assert session.run(CALL_SQL).metrics.served_from_cache

    def test_readmission_after_invalidation_is_immediate(self, session):
        """A recurring query's entry dies with its table version; the
        recompute is admitted at once (the key is already known)."""
        session.run(CALL_SQL)
        session.run(CALL_SQL)  # admitted
        session.insert("call", [(901, "100", "991", "2016-06-01", "mesa")])
        recomputed = session.run(CALL_SQL)
        assert not recomputed.metrics.served_from_cache
        assert session.run(CALL_SQL).metrics.served_from_cache


# --------------------------------------------------------------------------- #
# the shard-invalidation property
# --------------------------------------------------------------------------- #
def _assert_invariant(session: Session) -> int:
    """No surviving entry is stale: each was cached under the live
    schema generation, and whatever the cache serves for a pool query
    equals a fresh execution; returns the number of live entries."""
    generation = session.beas.catalog.schema_generation
    entries = session.beas.results.entries()
    for key, entry in entries:
        assert entry.schema_generation == generation, key
    for sql, _ in QUERY_POOL:
        served = session.run(sql)
        if served.metrics.served_from_cache:
            fresh = session.run(sql, use_result_cache=False)
            assert sorted(served.rows) == sorted(fresh.rows), (
                f"stale entry survived: {sql[:60]}"
            )
    return len(entries)


MUTATIONS = {
    "call": lambda i: [(40_000 + i, "100", f"m{i}", "2016-06-01", "cove")],
    "package": lambda i: [
        (41_000 + i, f"6{i:03d}", "c0", "2016-01-01", "2016-12-31", 2016)
    ],
    "business": lambda i: [(f"5{i:03d}", "cafe", "north")],
}
QUERY_POOL = [
    (CALL_SQL, frozenset({"call"})),
    (PACKAGE_SQL, frozenset({"package"})),
    (BUSINESS_SQL, frozenset({"business"})),
    (EXAMPLE2_SQL, frozenset({"call", "package", "business"})),
    (
        "SELECT call.region, business.type FROM call, business "
        "WHERE call.pnum = business.pnum AND call.date = '2016-06-01'",
        frozenset({"call", "business"}),
    ),
]


@pytest.mark.parametrize("seed", range(6))
def test_shard_invalidation_property(seed: int, session):
    """After any mutation sequence: no stale entry survives, and no
    entry on untouched tables is evicted."""
    rng = random.Random(313_000 + seed)
    for sql, _ in QUERY_POOL:  # two sightings: everything admitted
        session.run(sql)
        session.run(sql)
    assert _assert_invariant(session) == len(QUERY_POOL)

    for step in range(30):
        roll = rng.random()
        if roll < 0.45:
            table = rng.choice(list(MUTATIONS))
            # re-prime: one sighting readmits anything invalidated earlier
            # (the doorkeeper already knows every pool key)
            for sql, _ in QUERY_POOL:
                session.run(sql)
            survivors_expected = {
                sql for sql, deps in QUERY_POOL if table not in deps
            }
            try:
                if rng.random() < 0.3:
                    live = session.database.table(table)
                    if live.rows:
                        session.delete(table, [rng.choice(live.rows)])
                else:
                    session.insert(table, MUTATIONS[table](step + seed * 100))
            except MaintenanceError:
                pass
            # no needless eviction: untouched-table entries still hit
            for sql in survivors_expected:
                cached = session.run(sql)
                assert cached.metrics.served_from_cache, (
                    f"entry for untouched tables was evicted after "
                    f"mutating {table}: {sql[:60]}"
                )
        else:
            sql, _ = rng.choice(QUERY_POOL)
            session.run(sql)
        _assert_invariant(session)

    # repopulate and do a final sweep over every entry
    for sql, _ in QUERY_POOL:
        session.run(sql)
        session.run(sql)
    assert _assert_invariant(session) == len(QUERY_POOL)
    assert session.stats().result.evictions == 0  # capacity never the cause


def test_rejected_batch_still_invalidates_dependents(session):
    """A REJECTed (rolled-back) insert bumps Table.version, so cached
    entries over that table must still be dropped — conservatively."""
    session.run(PACKAGE_SQL)
    session.run(PACKAGE_SQL)  # admitted
    violating = [
        (300 + i, "100", f"c{i}", "2016-01-01", "2016-12-31", 2016)
        for i in range(13)  # psi2 allows 12 per (pnum, year)
    ]
    with pytest.raises(MaintenanceError):
        session.insert("package", violating)
    after = session.run(PACKAGE_SQL)
    assert not after.metrics.served_from_cache
    _assert_invariant(session)


def test_unknown_table_requests_leave_no_phantom_shard(session):
    from repro.errors import UnknownTableError

    before = set(session.beas.shards())
    with pytest.raises(UnknownTableError):
        session.insert("nosuch", [(1, "x")])
    with pytest.raises(UnknownTableError):
        session.run("SELECT x FROM nosuch2")
    after = session.stats()
    assert set(session.beas.shards()) == before
    assert "nosuch" not in after.shards and "nosuch2" not in after.shards
    assert all(s.maintenance_batches == 0 for s in after.shards.values())


def test_multi_shard_read_is_consistent_vector(session):
    """A join's metrics carry one version per dependency table, read
    under simultaneously-held read locks."""
    result = session.run(EXAMPLE2_SQL)
    versions = result.metrics.table_versions
    assert set(versions) == {"call", "package", "business"}
    for table, version in versions.items():
        assert version == session.database.table(table).version
